//! The TR*-tree (§4.2, [SK 91]): a main-memory R*-tree variant that
//! organizes the trapezoids of *one* decomposed object, with a very small
//! maximum node capacity (the paper finds M = 3 optimal by weighted
//! operation counts; by the clock this arena wants M = 6–8, because a
//! traversal pays per level — dependent loads, mispredicted loop exits —
//! more than per rectangle test. `JoinConfig::default()` carries the
//! measured value, `JoinConfig::version3()` the paper's).
//!
//! The intersection test between two objects walks both trees in tandem:
//! directory rectangles prune subtree pairs (rectangle intersection tests,
//! weight 28), and leaf trapezoid pairs decide (trapezoid intersection
//! tests, weight 38).
//!
//! # Construction
//!
//! The trees are **packed**, not built by R* insertion as the paper's
//! are (a deviation): an object's trapezoids stay in decomposition
//! order, which is band order; an object of at most `M` trapezoids is
//! one leaf, a larger one gets balanced leaves of `M − 1` consecutive
//! trapezoids (at least two), and each directory level packs the level
//! below in runs of `M` (see `pack.rs`). Nothing is chosen per
//! entry, so building costs the decomposition and one pass over it; R*
//! insertion (choose-subtree, forced reinsert, splits) was about two
//! thirds of the build. The trees answer the same, and test a little
//! more: on the seeded 300-pair set of `tests/agreement.rs`, rectangle
//! tests went 4,713 → 4,973 (+5.5 %) and trapezoid tests 210 → 218 at
//! M = 3, and 5,872 → 6,973 (+18.7 %) and 206 → 203 at M = 6; the
//! benchmark's refine join (M = 6) went from 58.5k to 63.7k weighted
//! operations (+8.8 %) at an unchanged join time, and the paper's Table 7
//! TR* totals from 617 to 651 (Europe A) and 416 to 445 (BW A). Leaves
//! of `M` made 70.8k weighted operations on that join, and an STR-packed
//! prototype 89k.
//!
//! # Layout
//!
//! All trees of a relation live in one [`TrStarStore`] — a flat arena of
//! four columns with no per-node or per-object allocation:
//!
//! | column | element | meaning |
//! |---|---|---|
//! | `node_offsets` | `u32` × (objects + 1) | object *i* owns nodes `[o[i], o[i+1])`; its root is the first |
//! | `trap_offsets` | `u32` × (objects + 1) | object *i* owns trapezoids `[o[i], o[i+1])` |
//! | `nodes` | 40 B: rect 4 × `f64`, `first: u32`, `level: u16`, `count: u16` | children are the object-local run `[first, first + count)` of nodes (`level > 0`) or trapezoids (`level = 0`) |
//! | `traps` | 48 B: `y_lo, y_hi, x_lo.0, x_lo.1, x_hi.0, x_hi.1` | the decomposition, in leaf order |
//!
//! Nodes are stored breadth-first, so sibling headers share cache lines
//! and child ids are implicit. [`TrStarStore::to_bytes`] writes these
//! columns little-endian behind a 32-byte header, and that image **is
//! the resident layout**: the node and trapezoid records are
//! `#[repr(C)]` structs of exactly the bytes above (pinned by
//! compile-time size and offset assertions), and on a page-aligned
//! section every column starts 8-byte aligned — the header is 32 B, the
//! two offset tables `8 · (objects + 1)` B together, a node 40 B.
//! [`TrStarStore::adopt`] therefore copies nothing: it checks the header
//! against the length, views the columns where they lie through
//! [`msj_geom::cast_slice`] and runs one validating pass. A store built
//! in this process keeps its columns in `Vec`s instead;
//! [`TrStarStore::columns`] resolves either to the same plain slices.
//!
//! Queries run over [`TrStarView`], a `Copy` pair of borrowed slices,
//! with a fixed inline stack: the dual traversal pushes at most
//! `count ≤ M` entries per popped pair and descends one level per pop,
//! so it holds at most `(h₁ + h₂) · (M − 1) + 1` entries —
//! [`INLINE_STACK`](msj_geom::stack::INLINE_STACK) covers combined
//! heights up to 12 at M = 6 (31 at M = 3, 9 at M = 8); taller pairs
//! spill to the heap and stay correct.

mod pack;

use crate::cost::OpCounts;
use crate::trapezoid::{Decomposer, SelectMargin, Trapezoid, XSpan};
use msj_geom::bytes::shrink_before_free;
use msj_geom::stack::InlineStack;
use msj_geom::{cast_slice, ObjectId, Plain, Point, PolygonWithHoles, Rect, Relation, SharedBytes};
use std::fmt;
use std::ops::Range;

const HEADER_BYTES: usize = 32;
const NODE_BYTES: usize = 40;
const TRAP_BYTES: usize = 48;
/// Trapezoid MBRs of one leaf that [`dual_traverse`] keeps in its frame.
const LEAF_LANES: usize = 8;

/// One node of the arena (see the module docs for the layout).
/// `#[repr(C)]`: it is the image's 40-byte node record.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C)]
struct NodeHeader {
    rect: Rect,
    /// First child, object-local: a node index when `level > 0`, a
    /// trapezoid index when `level == 0`.
    first: u32,
    /// Height above the leaves (0 = leaf).
    level: u16,
    count: u16,
}

// The two records are the image's: a change to either is a format change.
const _: () = {
    use std::mem::{align_of, offset_of, size_of};
    assert!(size_of::<Rect>() == 32 && align_of::<Rect>() == 8);
    assert!(size_of::<NodeHeader>() == NODE_BYTES && align_of::<NodeHeader>() == 8);
    assert!(offset_of!(NodeHeader, rect) == 0 && offset_of!(NodeHeader, first) == 32);
    assert!(offset_of!(NodeHeader, level) == 36 && offset_of!(NodeHeader, count) == 38);
    assert!(size_of::<Trapezoid>() == TRAP_BYTES && align_of::<Trapezoid>() == 8);
    assert!(offset_of!(Trapezoid, y_lo) == 0 && offset_of!(Trapezoid, y_hi) == 8);
    assert!(offset_of!(Trapezoid, x_lo) == 16 && offset_of!(Trapezoid, x_hi) == 32);
    assert!(size_of::<XSpan>() == 16 && offset_of!(XSpan, 1) == 8);
};

// SAFETY: `#[repr(C)]` over a `#[repr(C)]` `Rect` (four `f64`s), a `u32`
// and two `u16`s: 40 bytes with no padding (asserted above), every bit
// pattern a valid value, nothing interior-mutable. `Rect`'s ordered
// bounds are a library invariant, checked by `TrStarColumns::validate`
// before an image is adopted.
unsafe impl Plain for NodeHeader {}

// SAFETY: `#[repr(C)]` over two `f64`s and two `#[repr(C)]` `XSpan`s of
// two `f64`s each: 48 bytes with no padding (asserted above), every bit
// pattern a valid value, nothing interior-mutable.
unsafe impl Plain for Trapezoid {}

impl NodeHeader {
    #[inline]
    fn children(&self) -> Range<usize> {
        let first = self.first as usize;
        first..first.saturating_add(self.count as usize)
    }
}

/// The TR*-trees of every object of a relation — the paper's decomposed
/// object representation, built once at "insertion time" — as one flat
/// arena (module docs). The arena was either built in this process or
/// adopted in place from a stored image; [`TrStarStore::columns`] hands
/// out the same plain slices either way.
#[derive(Clone)]
pub struct TrStarStore {
    max_entries: u32,
    columns: Columns,
}

/// Where a [`TrStarStore`]'s columns live.
#[derive(Clone)]
enum Columns {
    /// Built in this process, one `Vec` per column.
    Built(Built),
    /// A validated image, viewed where it lies — inside a segment's
    /// buffer, which it keeps alive.
    Adopted(SharedBytes),
}

#[derive(Clone)]
struct Built {
    node_offsets: Vec<u32>,
    trap_offsets: Vec<u32>,
    nodes: Vec<NodeHeader>,
    traps: Vec<Trapezoid>,
}

/// A column length as an offset-table entry.
fn as_offset(len: usize) -> u32 {
    u32::try_from(len).expect("TR* arena exceeds u32 offsets")
}

impl Drop for Built {
    /// Trims the two big columns (≈ 10 MB per 10k objects) before the
    /// allocator frees them, so that no multi-MB block is ever freed
    /// whole; [`msj_geom::bytes::shrink_before_free`] says why.
    ///
    /// An adopted arena has no block of its own to trim: its columns lie
    /// in the segment's mapping, which is unmapped, not freed, when the
    /// last handle on it goes, and so moves no allocator threshold.
    fn drop(&mut self) {
        shrink_before_free(&mut self.nodes);
        shrink_before_free(&mut self.traps);
    }
}

/// Why [`TrStarStore::adopt`] rejected a section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrStarFormatError {
    /// The byte length does not match the counts in the header, or the
    /// header's reserved word is not zero.
    Length,
    /// The image does not start on an 8-byte boundary, so its columns
    /// cannot be viewed in place.
    Misaligned,
    /// An offset table is not monotone, does not start at 0 or does not
    /// end at the column length, or an object has no root node.
    Offsets,
    /// A node holds more children than the arena's node capacity.
    Fanout,
    /// A child run is not the next unclaimed run of its object — out of
    /// range, shared with another parent, or leaving entries unowned.
    ChildRange,
    /// A directory node's child is not exactly one level below it (this
    /// is what rules out cycles).
    Level,
    /// A node rectangle's bounds are not ordered (`min ≤ max`; NaN is
    /// not).
    Rect,
}

impl fmt::Display for TrStarFormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TrStarFormatError::Length => "TR* arena length does not match its header",
            TrStarFormatError::Misaligned => "TR* arena image is not 8-byte aligned",
            TrStarFormatError::Offsets => "TR* arena offset table malformed",
            TrStarFormatError::Fanout => "TR* arena node exceeds the node capacity",
            TrStarFormatError::ChildRange => "TR* arena child run out of place",
            TrStarFormatError::Level => "TR* arena child level is not parent level - 1",
            TrStarFormatError::Rect => "TR* arena node rectangle bounds not ordered",
        })
    }
}

impl std::error::Error for TrStarFormatError {}

impl TrStarStore {
    /// Builds the trees of every object of `relation` with maximum node
    /// capacity `max_entries` (the paper's M, clamped to `2..=u16::MAX`;
    /// 3 makes the fewest weighted operations, 6–8 the fastest and
    /// smallest arena).
    ///
    /// Every object is decomposed with one scratch onto a trapezoid
    /// column sized from the relation's vertex and hole counts (a valid
    /// region has at most one trapezoid per vertex plus one per hole
    /// beyond the first) and trimmed after the last; the node column is
    /// sized exactly from the trapezoid counts before the first tree is
    /// packed. Grown by doubling instead, each of them is copied at 8,
    /// 16, … MB with both copies alive — on a 10k-object relation that
    /// alone moved the process's peak resident set by up to a quarter,
    /// depending on where the allocator happened to place the copies.
    pub fn build(relation: &Relation, max_entries: usize) -> Self {
        let bound = |g: &PolygonWithHoles| g.num_vertices() + g.holes().len();
        let room = relation.iter().map(|o| bound(&o.region)).sum();
        let regions = relation.iter().map(|o| &o.region);
        Self::build_columns(regions, max_entries, room)
    }

    /// Builds one tree per region, in iteration order (object ids are
    /// the positions).
    pub fn from_regions<'r>(
        regions: impl IntoIterator<Item = &'r PolygonWithHoles>,
        max_entries: usize,
    ) -> Self {
        Self::build_columns(regions, max_entries, 0)
    }

    /// [`TrStarStore::from_regions`] with room for `room` trapezoids:
    /// every region is decomposed onto the trapezoid column, which is then
    /// trimmed, and the trees are packed over it.
    fn build_columns<'r>(
        regions: impl IntoIterator<Item = &'r PolygonWithHoles>,
        max_entries: usize,
        room: usize,
    ) -> Self {
        let max_entries = max_entries.clamp(2, u16::MAX as usize);
        let mut traps = Vec::with_capacity(room);
        let mut trap_offsets = vec![0];
        let mut decomposer = Decomposer::default();
        for region in regions {
            decomposer.decompose_into(region, &mut traps);
            trap_offsets.push(as_offset(traps.len()));
        }
        traps.shrink_to_fit();
        TrStarStore {
            max_entries: max_entries as u32,
            columns: Columns::Built(pack::pack(traps, trap_offsets, max_entries)),
        }
    }

    /// The four columns as plain slices. Where they live — built here or
    /// adopted from an image — is resolved in this call, so a run of
    /// many tests resolves once and then indexes slices only.
    #[inline]
    pub fn columns(&self) -> TrStarColumns<'_> {
        match &self.columns {
            Columns::Built(b) => TrStarColumns {
                node_offsets: &b.node_offsets,
                trap_offsets: &b.trap_offsets,
                nodes: &b.nodes,
                traps: &b.traps,
            },
            Columns::Adopted(image) => {
                image_columns(image)
                    .expect("the image was laid out when it was adopted")
                    .1
            }
        }
    }

    /// The tree of object `id` — [`TrStarStore::columns`] then
    /// [`TrStarColumns::get`]; a loop over many objects resolves the
    /// columns once instead.
    #[inline]
    pub fn get(&self, id: ObjectId) -> TrStarView<'_> {
        self.columns().get(id)
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.columns().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn max_entries(&self) -> usize {
        self.max_entries as usize
    }

    /// Total trapezoids over all objects.
    pub fn num_trapezoids(&self) -> usize {
        self.columns().traps.len()
    }

    /// Average tree height — the paper relates cost ratios to the ratio of
    /// average heights (7.6 / 5.0 for BW / Europe).
    pub fn avg_height(&self) -> f64 {
        let c = self.columns();
        if c.is_empty() {
            return 0.0;
        }
        let roots = &c.node_offsets[..c.len()];
        let total: f64 = roots
            .iter()
            .map(|&root| f64::from(c.nodes[root as usize].level) + 1.0)
            .sum();
        total / c.len() as f64
    }

    /// Average number of trapezoids per object.
    pub fn avg_trapezoids(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.num_trapezoids() as f64 / self.len() as f64
    }

    /// The arena as its persistent image: a 32-byte header
    /// (`max_entries: u32`, zero `u32`, then object / node / trapezoid
    /// counts as `u64`) followed by the four columns of the module docs,
    /// everything little-endian. Written field by field from the
    /// columns, so an adopted arena re-encodes to the image it was
    /// adopted from only if the in-place view reads every field back.
    pub fn to_bytes(&self) -> Vec<u8> {
        let c = self.columns();
        let mut out = Vec::with_capacity(image_len(c.len(), c.nodes.len(), c.traps.len()));
        out.extend_from_slice(&self.max_entries.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        for count in [c.len(), c.nodes.len(), c.traps.len()] {
            out.extend_from_slice(&(count as u64).to_le_bytes());
        }
        for &o in c.node_offsets.iter().chain(c.trap_offsets) {
            out.extend_from_slice(&o.to_le_bytes());
        }
        for n in c.nodes {
            let mut rec = [0u8; NODE_BYTES];
            put_f64s(&mut rec, &n.rect.bounds());
            rec[32..36].copy_from_slice(&n.first.to_le_bytes());
            rec[36..38].copy_from_slice(&n.level.to_le_bytes());
            rec[38..40].copy_from_slice(&n.count.to_le_bytes());
            out.extend_from_slice(&rec);
        }
        for t in c.traps {
            let mut rec = [0u8; TRAP_BYTES];
            put_f64s(
                &mut rec,
                &[t.y_lo, t.y_hi, t.x_lo.0, t.x_lo.1, t.x_hi.0, t.x_hi.1],
            );
            out.extend_from_slice(&rec);
        }
        out
    }

    /// Adopts a [`TrStarStore::to_bytes`] image where it lies: the
    /// header's counts are checked against the length, the columns are
    /// viewed in place, and one validating pass checks what every
    /// traversal relies on (the offset tables, fan-out, child runs,
    /// levels and ordered node rectangles; [`TrStarFormatError`] lists
    /// them). Nothing is copied; the arena keeps `image`'s buffer alive.
    pub fn adopt(image: SharedBytes) -> Result<Self, TrStarFormatError> {
        let (max_entries, columns) = image_columns(&image)?;
        columns.validate(max_entries)?;
        Ok(TrStarStore {
            max_entries,
            columns: Columns::Adopted(image),
        })
    }

    /// [`TrStarStore::adopt`] for a caller that holds only a `&[u8]`: the
    /// bytes are copied into a page-aligned buffer of their own first.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, TrStarFormatError> {
        Self::adopt(SharedBytes::copy_of(bytes))
    }
}

impl PartialEq for TrStarStore {
    /// Equal arenas hold equal columns, wherever each one lives.
    fn eq(&self, other: &Self) -> bool {
        self.max_entries == other.max_entries && self.columns() == other.columns()
    }
}

impl fmt::Debug for TrStarStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = self.columns();
        f.debug_struct("TrStarStore")
            .field("max_entries", &self.max_entries)
            .field("objects", &c.len())
            .field("nodes", &c.nodes.len())
            .field("trapezoids", &c.traps.len())
            .field("adopted", &matches!(self.columns, Columns::Adopted(_)))
            .finish()
    }
}

/// Image bytes of an arena of these counts; `None` on overflow.
fn checked_image_len(objects: usize, nodes: usize, traps: usize) -> Option<usize> {
    HEADER_BYTES
        .checked_add(objects.checked_add(1)?.checked_mul(8)?)?
        .checked_add(nodes.checked_mul(NODE_BYTES)?)?
        .checked_add(traps.checked_mul(TRAP_BYTES)?)
}

fn image_len(objects: usize, nodes: usize, traps: usize) -> usize {
    checked_image_len(objects, nodes, traps).expect("a resident arena's image fits usize")
}

/// The header's node capacity and the four columns of `image`, viewed in
/// place — after the counts have been checked against the length and
/// before anything else is.
fn image_columns(image: &[u8]) -> Result<(u32, TrStarColumns<'_>), TrStarFormatError> {
    if image.len() < HEADER_BYTES || u32_at(image, 4) != 0 {
        return Err(TrStarFormatError::Length);
    }
    let count_at = |at: usize| usize::try_from(u64_at(image, at)).ok();
    let (Some(objects), Some(nodes), Some(traps)) = (count_at(8), count_at(16), count_at(24))
    else {
        return Err(TrStarFormatError::Length);
    };
    if checked_image_len(objects, nodes, traps) != Some(image.len()) {
        return Err(TrStarFormatError::Length);
    }
    let offsets_bytes = 4 * (objects + 1);
    let (node_offsets, rest) = image[HEADER_BYTES..].split_at(offsets_bytes);
    let (trap_offsets, rest) = rest.split_at(offsets_bytes);
    let (nodes, traps) = rest.split_at(nodes * NODE_BYTES);
    let columns = TrStarColumns {
        node_offsets: column(node_offsets)?,
        trap_offsets: column(trap_offsets)?,
        nodes: column(nodes)?,
        traps: column(traps)?,
    };
    Ok((u32_at(image, 0), columns))
}

/// One column of an image whose length is already checked, in place. Its
/// start is 8-byte aligned exactly when the image's is: the header is 32
/// bytes, the two offset tables `8 · (objects + 1)` together, a node 40.
fn column<T: Plain>(bytes: &[u8]) -> Result<&[T], TrStarFormatError> {
    cast_slice(bytes).map_err(|_| TrStarFormatError::Misaligned)
}

fn put_f64s(rec: &mut [u8], values: &[f64]) {
    for (dst, v) in rec.chunks_exact_mut(8).zip(values) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4-byte slice"))
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8-byte slice"))
}

/// A [`TrStarStore`]'s four columns as plain slices
/// ([`TrStarStore::columns`]): object lookups index them with no further
/// question of where they live.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrStarColumns<'a> {
    node_offsets: &'a [u32],
    trap_offsets: &'a [u32],
    nodes: &'a [NodeHeader],
    traps: &'a [Trapezoid],
}

impl<'a> TrStarColumns<'a> {
    /// The tree of object `id`.
    #[inline]
    pub fn get(&self, id: ObjectId) -> TrStarView<'a> {
        let i = id as usize;
        TrStarView {
            nodes: &self.nodes[self.node_offsets[i] as usize..self.node_offsets[i + 1] as usize],
            traps: &self.traps[self.trap_offsets[i] as usize..self.trap_offsets[i + 1] as usize],
        }
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.node_offsets.len().saturating_sub(1)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The invariants every traversal relies on, checked in one linear
    /// pass: the node capacity is in `2..=u16::MAX`; each object has a
    /// root; every node rectangle has ordered bounds (no NaN); every
    /// node's child run is the *next unclaimed* run of its object's nodes
    /// (directory) or trapezoids (leaf), so no entry has two parents or
    /// none; fan-out is within the node capacity (which bounds the
    /// traversal stack); and a directory node's children sit exactly one
    /// level below it, so every descent terminates.
    fn validate(&self, max_entries: u32) -> Result<(), TrStarFormatError> {
        if !(2..=u32::from(u16::MAX)).contains(&max_entries) {
            return Err(TrStarFormatError::Fanout);
        }
        let well_formed = |offsets: &[u32], len: usize| {
            offsets.first() == Some(&0)
                && offsets.last().map(|&o| o as usize) == Some(len)
                && offsets.windows(2).all(|w| w[0] <= w[1])
        };
        if !well_formed(self.node_offsets, self.nodes.len())
            || !well_formed(self.trap_offsets, self.traps.len())
        {
            return Err(TrStarFormatError::Offsets);
        }
        for id in 0..self.len() {
            let tree = self.get(id as ObjectId);
            if tree.nodes.is_empty() {
                return Err(TrStarFormatError::Offsets);
            }
            let (mut next_node, mut next_trap) = (1usize, 0usize);
            for node in tree.nodes {
                if Rect::from_ordered_bounds(node.rect.bounds()).is_none() {
                    return Err(TrStarFormatError::Rect);
                }
                if u32::from(node.count) > max_entries {
                    return Err(TrStarFormatError::Fanout);
                }
                let run = node.children();
                if node.level == 0 {
                    if run.start != next_trap || run.end > tree.traps.len() {
                        return Err(TrStarFormatError::ChildRange);
                    }
                    next_trap = run.end;
                } else {
                    if run.start != next_node || run.end > tree.nodes.len() {
                        return Err(TrStarFormatError::ChildRange);
                    }
                    next_node = run.end;
                    if tree.nodes[run].iter().any(|c| c.level != node.level - 1) {
                        return Err(TrStarFormatError::Level);
                    }
                }
            }
            if next_node != tree.nodes.len() || next_trap != tree.traps.len() {
                return Err(TrStarFormatError::ChildRange);
            }
        }
        Ok(())
    }
}

/// The TR*-tree of one object: borrowed runs of a [`TrStarStore`]'s node
/// and trapezoid columns. The root is node 0.
#[derive(Debug, Clone, Copy)]
pub struct TrStarView<'a> {
    nodes: &'a [NodeHeader],
    traps: &'a [Trapezoid],
}

impl<'a> TrStarView<'a> {
    /// Number of trapezoids stored.
    pub fn num_trapezoids(&self) -> usize {
        self.traps.len()
    }

    /// Tree height in levels (1 = a single leaf node).
    pub fn height(&self) -> u32 {
        u32::from(self.nodes[0].level) + 1
    }

    /// The root MBR (covers the whole object).
    pub fn root_rect(&self) -> Rect {
        self.nodes[0].rect
    }

    /// The stored trapezoids, in leaf order.
    pub fn trapezoids(&self) -> &'a [Trapezoid] {
        self.traps
    }

    /// Three-way point test of a selection's Step 3 (§4.2: the exact step
    /// walks the tree, never the edges): `Some(answer)` when the
    /// trapezoids prove whether the closed region contains `p`, `None`
    /// when `p` lies within the margin of [`SelectMargin`] and only the
    /// region test can tell. Sound because [`crate::decompose`]'s
    /// trapezoids tile the object's region. Each node rectangle probe
    /// counts as a rectangle test, each leaf probe as a trapezoid test.
    pub(crate) fn classify_point(&self, p: Point, counts: &mut OpCounts) -> Option<bool> {
        let decide = |t: &Trapezoid, m: &SelectMargin| t.classify_point(p, m);
        self.classify(counts, &mut InlineStack::new(0), &Rect::new(p, p), decide)
    }

    /// [`TrStarView::classify_point`] for a closed window.
    pub(crate) fn classify_rect(&self, window: &Rect, counts: &mut OpCounts) -> Option<bool> {
        let decide = |t: &Trapezoid, m: &SelectMargin| t.classify_rect(window, m);
        self.classify(counts, &mut InlineStack::new(0), window, decide)
    }

    /// The descent of both three-way tests, over a caller-owned stack (the
    /// tests read it back to show it never spilled). A node is skipped
    /// only when its rectangle misses the probe's [`SelectMargin::reach`],
    /// which every trapezoid MBR below it then misses too — so a skip is
    /// one of the trapezoids' own `Some(false)`s. One trapezoid's `true`
    /// decides; `false` needs every reached trapezoid's.
    fn classify(
        &self,
        counts: &mut OpCounts,
        stack: &mut InlineStack<u32>,
        probe: &Rect,
        decide: impl Fn(&Trapezoid, &SelectMargin) -> Option<bool>,
    ) -> Option<bool> {
        let margin = SelectMargin::of(&self.root_rect());
        let reach = margin.reach(probe);
        let mut answer = Some(false);
        stack.push_if(0, true);
        while let Some(cur) = stack.pop() {
            let n = &self.nodes[cur as usize];
            counts.rect_rect += 1;
            if !n.rect.intersects(&reach) {
                continue;
            }
            if n.level == 0 {
                for t in &self.traps[n.children()] {
                    counts.trapezoid += 1;
                    match decide(t, &margin) {
                        Some(true) => return Some(true),
                        Some(false) => {}
                        None => answer = None,
                    }
                }
            } else {
                for c in n.children() {
                    stack.push_if(c as u32, true);
                }
            }
        }
        answer
    }
}

/// Dual-tree intersection test between two decomposed objects (§4.2):
/// returns `true` iff some trapezoid of `t1` intersects some trapezoid of
/// `t2`. Because the trapezoids cover the closed regions, containment is
/// detected without a separate point-in-polygon step.
pub fn trees_intersect(t1: TrStarView<'_>, t2: TrStarView<'_>, counts: &mut OpCounts) -> bool {
    dual_traverse(t1, t2, counts, &mut InlineStack::new((0, 0)))
}

/// [`trees_intersect`] over a caller-owned stack.
fn dual_traverse(
    t1: TrStarView<'_>,
    t2: TrStarView<'_>,
    counts: &mut OpCounts,
    stack: &mut InlineStack<(u32, u32)>,
) -> bool {
    if t1.traps.is_empty() || t2.traps.is_empty() {
        return false;
    }
    let (mut rects, mut trapezoids) = (1u64, 0u64);
    let hit = 'search: {
        // Root-level pretest.
        if !t1.root_rect().intersects(&t2.root_rect()) {
            break 'search false;
        }
        stack.push_if((0, 0), true);
        while let Some((a, b)) = stack.pop() {
            let na = &t1.nodes[a as usize];
            let nb = &t2.nodes[b as usize];
            if na.level == 0 && nb.level == 0 {
                let traps_a = &t1.traps[na.children()];
                // The trapezoid MBRs of leaf `b` are computed once per
                // leaf pair, not once per trapezoid of `a` — with wide
                // leaves the pretests are most of a leaf visit. A leaf
                // wider than the lanes is taken a lane-load at a time.
                for chunk in t2.traps[nb.children()].chunks(LEAF_LANES) {
                    let mut rects_b = [chunk[0].mbr(); LEAF_LANES];
                    for (rect_b, trap_b) in rects_b.iter_mut().zip(chunk) {
                        *rect_b = trap_b.mbr();
                    }
                    for trap_a in traps_a {
                        let rect_a = trap_a.mbr();
                        // MBR pretests into a mask; only the set bits
                        // reach the trapezoid test.
                        let mut passed = 0u32;
                        for (j, rect_b) in rects_b[..chunk.len()].iter().enumerate() {
                            passed |= u32::from(rect_a.intersects(rect_b)) << j;
                        }
                        while passed != 0 {
                            let j = passed.trailing_zeros() as usize;
                            passed &= passed - 1;
                            trapezoids += 1;
                            if trap_a.intersects(&chunk[j]) {
                                // The pointer tree stopped here: pretests
                                // past `j` were never made.
                                rects += j as u64 + 1;
                                break 'search true;
                            }
                        }
                        rects += chunk.len() as u64;
                    }
                }
            } else {
                // Descend the taller tree (or t1 on ties). One loop for
                // both sides, selected by value, so the choice is data
                // flow rather than a second unpredictable branch.
                let descend_a = na.level >= nb.level;
                let (children, first, fixed) = if descend_a {
                    (&t1.nodes[na.children()], na.first, nb.rect)
                } else {
                    (&t2.nodes[nb.children()], nb.first, na.rect)
                };
                rects += children.len() as u64;
                for (c, child) in (first..).zip(children) {
                    let pair = if descend_a { (c, b) } else { (a, c) };
                    stack.push_if(pair, child.rect.intersects(&fixed));
                }
            }
        }
        false
    };
    counts.rect_rect += rects;
    counts.trapezoid += trapezoids;
    hit
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quadratic::quadratic_intersects;
    use crate::trapezoid::decompose;
    use msj_geom::Polygon;

    fn region(coords: &[(f64, f64)]) -> PolygonWithHoles {
        Polygon::new(coords.iter().map(|&(x, y)| Point::new(x, y)).collect())
            .unwrap()
            .into()
    }

    fn blob(n: usize, cx: f64, cy: f64, phase: f64) -> PolygonWithHoles {
        let coords: Vec<(f64, f64)> = (0..n)
            .map(|i| {
                let t = i as f64 / n as f64 * std::f64::consts::TAU;
                let r = 3.0 + 1.2 * (3.0 * t + phase).sin() + 0.5 * (7.0 * t).cos();
                (cx + r * t.cos(), cy + r * t.sin())
            })
            .collect();
        region(&coords)
    }

    /// The arena over `regions`, M = 3.
    fn store(regions: &[&PolygonWithHoles]) -> TrStarStore {
        TrStarStore::from_regions(regions.iter().copied(), 3)
    }

    #[test]
    fn tree_covers_all_trapezoids() {
        let b = blob(40, 0.0, 0.0, 0.0);
        let s = store(&[&b]);
        let tree = s.get(0);
        assert!(tree.num_trapezoids() > 10);
        assert_eq!(tree.num_trapezoids(), decompose(&b).len());
        let root = tree.root_rect();
        for t in tree.trapezoids() {
            assert!(root.contains_rect(&t.mbr()));
        }
    }

    #[test]
    fn height_grows_logarithmically() {
        let (small, large) = (blob(12, 0.0, 0.0, 0.0), blob(200, 0.0, 0.0, 0.0));
        let s = store(&[&small, &large]);
        assert!(s.get(1).height() > s.get(0).height());
        // log3-ish bound: a 200-vertex blob has ≤ ~400 trapezoids; height
        // stays well under 14 even at M = 3 (min fill 1).
        assert!(s.get(1).height() <= 14, "height {}", s.get(1).height());
    }

    #[test]
    fn point_queries_match_region_membership() {
        let b = blob(60, 1.0, -2.0, 0.7);
        let s = store(&[&b]);
        let tree = s.get(0);
        let mbr = b.mbr().inflated(0.5);
        let mut counts = OpCounts::new();
        let mut decided = 0;
        for i in 0..25 {
            for j in 0..25 {
                let p = Point::new(
                    mbr.xmin() + mbr.width() * i as f64 / 24.0,
                    mbr.ymin() + mbr.height() * j as f64 / 24.0,
                );
                if let Some(inside) = tree.classify_point(p, &mut counts) {
                    assert_eq!(inside, b.contains_point(p), "{p:?}");
                    decided += 1;
                }
                let w = Rect::from_bounds(p.x, p.y, p.x + 0.3, p.y + 0.2);
                if let Some(meets) = tree.classify_rect(&w, &mut counts) {
                    let reference = crate::window::region_intersects_rect_reference(&b, &w);
                    assert_eq!(meets, reference, "{w:?}");
                }
            }
        }
        // Only the points within the margin of the boundary are left.
        assert!(decided >= 600, "{decided} of 625 decided");
        assert!(counts.rect_rect > 0 && counts.trapezoid > 0);
    }

    #[test]
    fn tree_intersection_agrees_with_quadratic() {
        let cases = [
            (blob(30, 0.0, 0.0, 0.0), blob(30, 2.0, 1.0, 1.0), true),
            (blob(30, 0.0, 0.0, 0.0), blob(30, 20.0, 0.0, 1.0), false),
            // Containment: big blob vs tiny square inside.
            (
                blob(30, 0.0, 0.0, 0.0),
                region(&[(-0.3, -0.3), (0.3, -0.3), (0.3, 0.3), (-0.3, 0.3)]),
                true,
            ),
        ];
        for (i, (a, b, expect)) in cases.iter().enumerate() {
            let s = store(&[a, b]);
            let mut c1 = OpCounts::new();
            let mut c2 = OpCounts::new();
            assert_eq!(
                trees_intersect(s.get(0), s.get(1), &mut c1),
                *expect,
                "case {i} (tr*)"
            );
            assert_eq!(
                quadratic_intersects(a, b, &mut c2),
                *expect,
                "case {i} (quad)"
            );
        }
    }

    #[test]
    fn containment_needs_no_pip() {
        // Unlike edge-based algorithms, containment shows up as trapezoid
        // overlap directly.
        let big = blob(40, 0.0, 0.0, 0.0);
        let small = region(&[(-0.2, -0.2), (0.2, -0.2), (0.2, 0.2), (-0.2, 0.2)]);
        let s = store(&[&big, &small]);
        let mut c = OpCounts::new();
        assert!(trees_intersect(s.get(0), s.get(1), &mut c));
        assert_eq!(c.pip_performed, 0);
        assert_eq!(c.edge_line, 0);
    }

    #[test]
    fn disjoint_roots_cost_one_rect_test() {
        let (a, b) = (blob(20, 0.0, 0.0, 0.0), blob(20, 100.0, 100.0, 0.0));
        let s = store(&[&a, &b]);
        let mut c = OpCounts::new();
        assert!(!trees_intersect(s.get(0), s.get(1), &mut c));
        assert_eq!(c.rect_rect, 1);
        assert_eq!(c.trapezoid, 0);
    }

    #[test]
    fn store_builds_per_object_trees() {
        let rel = Relation::from_regions(vec![
            blob(20, 0.0, 0.0, 0.0),
            blob(40, 10.0, 0.0, 1.0),
            blob(60, 0.0, 10.0, 2.0),
        ]);
        let store = TrStarStore::build(&rel, 3);
        assert_eq!(store.len(), 3);
        assert!(store.avg_height() >= 1.0);
        assert!(store.avg_trapezoids() > 10.0);
        assert_eq!(store.max_entries(), 3);
        // The aggregates come from the offset tables alone.
        let per_tree: usize = (0..3).map(|i| store.get(i).num_trapezoids()).sum();
        assert_eq!(store.num_trapezoids(), per_tree);
        let heights: u32 = (0..3).map(|i| store.get(i).height()).sum();
        assert!((store.avg_height() - f64::from(heights) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn node_capacity_is_respected() {
        let b = blob(100, 0.0, 0.0, 0.3);
        for m in [3usize, 4, 5] {
            let s = TrStarStore::from_regions([&b], m);
            for node in s.get(0).nodes {
                assert!(node.count as usize <= m, "node over capacity {m}");
            }
        }
    }

    #[test]
    fn donut_vs_hole_filler() {
        let outer = Polygon::new(
            [(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)]
                .iter()
                .map(|&(x, y)| Point::new(x, y))
                .collect(),
        )
        .unwrap();
        let hole = Polygon::new(
            [(3.0, 3.0), (7.0, 3.0), (7.0, 7.0), (3.0, 7.0)]
                .iter()
                .map(|&(x, y)| Point::new(x, y))
                .collect(),
        )
        .unwrap();
        let donut = PolygonWithHoles::new(outer, vec![hole]);
        let inside_hole = region(&[(4.0, 4.0), (6.0, 4.0), (6.0, 6.0), (4.0, 6.0)]);
        let poking = region(&[(4.0, 4.0), (9.0, 4.0), (9.0, 6.0), (4.0, 6.0)]);
        let s = store(&[&donut, &inside_hole, &poking]);
        let mut c = OpCounts::new();
        assert!(!trees_intersect(s.get(0), s.get(1), &mut c));
        assert!(trees_intersect(s.get(0), s.get(2), &mut c));
    }

    /// `image` at byte `at` of a fresh page-aligned buffer.
    fn placed(image: &[u8], at: usize) -> SharedBytes {
        let mut buf = msj_geom::AlignedBuf::zeroed(at + image.len());
        buf.as_mut_slice()[at..].copy_from_slice(image);
        SharedBytes::new(std::sync::Arc::new(buf), at..at + image.len())
    }

    #[test]
    fn bytes_round_trip_and_builds_pass_validation() {
        let regions = [blob(20, 0.0, 0.0, 0.0), blob(90, 4.0, 1.0, 1.0)];
        for m in [2usize, 3, 4, 5, 9] {
            let s = TrStarStore::from_regions(&regions, m);
            s.columns()
                .validate(s.max_entries)
                .expect("built arena is canonical");
            let back = TrStarStore::from_bytes(&s.to_bytes()).expect("round trip");
            assert!(matches!(back.columns, Columns::Adopted(_)));
            assert_eq!(back, s);
            assert_eq!(back.to_bytes(), s.to_bytes());
        }
        let empty = TrStarStore::from_regions([], 3);
        assert_eq!(TrStarStore::from_bytes(&empty.to_bytes()).unwrap(), empty);
        assert!(empty.is_empty());
    }

    #[test]
    fn an_adopted_arena_is_its_image_in_place() {
        let regions = [blob(40, 0.0, 0.0, 0.0), blob(70, 3.0, 1.0, 2.0)];
        let built = TrStarStore::from_regions(&regions, 6);
        let image = built.to_bytes();
        let shared = placed(&image, PAGE_SIZE);
        let adopted = TrStarStore::adopt(shared.clone()).expect("own image adopts");
        assert_eq!(adopted, built);
        // Nothing was copied: both big columns point into the image.
        let span = shared.as_ptr_range();
        let columns = adopted.columns();
        assert!(span.contains(&columns.nodes.as_ptr().cast()));
        assert!(span.contains(&columns.traps.as_ptr().cast()));
        let mut c1 = OpCounts::new();
        let mut c2 = OpCounts::new();
        assert_eq!(
            trees_intersect(adopted.get(0), adopted.get(1), &mut c1),
            trees_intersect(built.get(0), built.get(1), &mut c2)
        );
        assert_eq!(c1, c2);
        // An image whose start is not 8-byte aligned cannot be viewed in
        // place; one 8 bytes in can.
        for at in 1..8 {
            let err = TrStarStore::adopt(placed(&image, at));
            assert_eq!(err, Err(TrStarFormatError::Misaligned), "image at {at}");
        }
        assert_eq!(TrStarStore::adopt(placed(&image, 8)).unwrap(), built);
    }

    const PAGE_SIZE: usize = msj_geom::PAGE_SIZE;

    /// The cast helper's boundaries on both image records: every start 1–7
    /// bytes off alignment is refused, a length that is not a whole number
    /// of records is refused, zero bytes are an empty slice, and an exact
    /// fit reads back the records the image was written from.
    #[test]
    fn record_casts_check_alignment_and_length() {
        let built = TrStarStore::from_regions([&blob(50, 0.0, 0.0, 0.0)], 4);
        let image = built.to_bytes();
        let c = built.columns();
        let nodes_at = HEADER_BYTES + 8 * (c.len() + 1);
        let traps_at = nodes_at + NODE_BYTES * c.nodes.len();
        let shared = placed(&image, 0);
        let node_bytes = &shared[nodes_at..traps_at];
        let trap_bytes = &shared[traps_at..];
        assert!(c.nodes.len() >= 2 && c.traps.len() >= 2);

        for off in 1..8 {
            // Whole records, so only the alignment check can refuse them.
            let nodes = &shared[nodes_at + off..nodes_at + off + NODE_BYTES];
            let traps = &shared[traps_at + off..traps_at + off + TRAP_BYTES];
            assert!(cast_slice::<NodeHeader>(nodes).is_err(), "node at +{off}");
            assert!(
                cast_slice::<Trapezoid>(traps).is_err(),
                "trapezoid at +{off}"
            );
        }
        for len in [1, NODE_BYTES - 1, NODE_BYTES + 1, 2 * NODE_BYTES - 8] {
            assert!(
                cast_slice::<NodeHeader>(&node_bytes[..len]).is_err(),
                "{len} B"
            );
        }
        for len in [1, 8, TRAP_BYTES - 8, TRAP_BYTES + 8] {
            assert!(
                cast_slice::<Trapezoid>(&trap_bytes[..len]).is_err(),
                "{len} B"
            );
        }
        assert_eq!(cast_slice::<NodeHeader>(&node_bytes[..0]), Ok(&[][..]));
        assert_eq!(cast_slice::<Trapezoid>(&trap_bytes[..0]), Ok(&[][..]));
        assert_eq!(cast_slice::<NodeHeader>(node_bytes), Ok(c.nodes));
        assert_eq!(cast_slice::<Trapezoid>(trap_bytes), Ok(c.traps));
        assert_eq!(
            cast_slice::<NodeHeader>(&node_bytes[..NODE_BYTES]),
            Ok(&c.nodes[..1])
        );
    }

    #[test]
    fn hostile_arenas_are_rejected() {
        let valid = store(&[&blob(60, 0.0, 0.0, 0.0), &blob(30, 5.0, 0.0, 0.0)]);
        assert!(valid.get(0).height() >= 3);
        let rejects = |mutate: &dyn Fn(&mut Built), want: TrStarFormatError| {
            let mut s = valid.clone();
            let Columns::Built(built) = &mut s.columns else {
                unreachable!("built by `store`")
            };
            mutate(built);
            assert_eq!(TrStarStore::from_bytes(&s.to_bytes()), Err(want));
        };
        // A directory node listing itself as a child: the cycle that used
        // to hang `trees_intersect`.
        rejects(&|s| s.nodes[0].first = 0, TrStarFormatError::ChildRange);
        rejects(
            &|s| {
                // Self-reference that *is* the next unclaimed run: node 1
                // claims the run starting at itself. Only the level rule
                // catches it.
                let root_children = s.nodes[0].count;
                s.nodes[0].count = 0;
                s.nodes[1].first = 1;
                s.nodes[1].count = root_children;
            },
            TrStarFormatError::Level,
        );
        // A level-skipping child (root two levels above its children).
        rejects(&|s| s.nodes[0].level += 1, TrStarFormatError::Level);
        rejects(&|s| s.nodes[1].level += 1, TrStarFormatError::Level);
        // Fan-out past the capacity, stolen runs, orphaned trapezoids.
        rejects(&|s| s.nodes[0].count = 7, TrStarFormatError::Fanout);
        rejects(
            &|s| s.nodes[2].first = s.nodes[1].first,
            TrStarFormatError::ChildRange,
        );
        rejects(
            &|s| {
                let last = s.node_offsets[1] as usize - 1;
                s.nodes[last].count -= 1;
            },
            TrStarFormatError::ChildRange,
        );
        // Offset tables and lengths.
        rejects(&|s| s.node_offsets[1] = 0, TrStarFormatError::Offsets);
        rejects(
            &|s| s.trap_offsets[1] += 1_000_000,
            TrStarFormatError::Offsets,
        );
        let mut s = valid.clone();
        s.max_entries = 1;
        assert_eq!(
            TrStarStore::from_bytes(&s.to_bytes()),
            Err(TrStarFormatError::Fanout)
        );
        let bytes = valid.to_bytes();
        // Node rectangles: unordered or NaN bounds, in the last node.
        let last_node = bytes.len() - TRAP_BYTES * valid.num_trapezoids() - NODE_BYTES;
        for (k, v) in [(0, f64::NAN), (1, f64::INFINITY), (2, f64::NEG_INFINITY)] {
            let mut bad = bytes.clone();
            bad[last_node + 8 * k..][..8].copy_from_slice(&v.to_le_bytes());
            assert_eq!(TrStarStore::from_bytes(&bad), Err(TrStarFormatError::Rect));
        }
        assert_eq!(
            TrStarStore::from_bytes(&bytes[..bytes.len() - 1]),
            Err(TrStarFormatError::Length)
        );
        let mut huge = bytes.clone();
        huge[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            TrStarStore::from_bytes(&huge),
            Err(TrStarFormatError::Length)
        );
        assert_eq!(TrStarStore::from_bytes(&[]), Err(TrStarFormatError::Length));
    }

    #[test]
    fn queries_within_the_inline_bound_never_touch_the_heap() {
        // The spill `Vec` is the only allocation site on the query path;
        // a capacity of zero after the call means it was never pushed.
        let regions: Vec<PolygonWithHoles> = (0..12)
            .map(|i| blob(20 + 40 * i, 0.4 * i as f64, 0.0, i as f64))
            .collect();
        let mut counts = OpCounts::new();
        for m in [3usize, 6] {
            let s = TrStarStore::from_regions(&regions, m);
            let tallest = (0..12).map(|i| s.get(i).height()).max().unwrap() as usize;
            // The module docs' bound: `(h₁ + h₂) · (M − 1) + 1` entries
            // must fit the inline part.
            assert!(
                2 * tallest * (m - 1) < msj_geom::stack::INLINE_STACK,
                "the set must stay inside the inline bound (M = {m}, height {tallest})"
            );
            for i in 0..12 {
                for j in 0..12 {
                    let mut stack = InlineStack::new((0, 0));
                    dual_traverse(s.get(i), s.get(j), &mut counts, &mut stack);
                    assert!(!stack.spilled(), "M = {m}: pair {i}/{j} spilled");
                }
                for x in [0.3, 50.0] {
                    let mut stack = InlineStack::new(0);
                    let p = Point::new(x, 0.2);
                    let decide = |t: &Trapezoid, m: &SelectMargin| t.classify_point(p, m);
                    s.get(i)
                        .classify(&mut counts, &mut stack, &Rect::new(p, p), decide);
                    assert!(!stack.spilled(), "M = {m}: point probe {i} spilled");
                }
            }
        }
        assert!(counts.trapezoid > 0);
    }
}

//! The MBR-join (§2.4): a spatial join on the minimum bounding rectangles
//! of two relations, computed by synchronized R*-tree traversal following
//! [BKS 93a] with its two CPU optimizations — *restricting the search
//! space* to the intersection of the node rectangles and *plane-sweep
//! order* for matching entries within a node pair.
//!
//! [BKS 93a] keeps a page's entries in sweep order; so does the arena
//! (see [`crate::rstar`]). A node-pair visit therefore only *compares*:
//! one restriction mask per side over the pre-sorted columns, a merge of
//! the two restricted runs, and ids or child pairs read straight from the
//! value column. All scratch lives in one per-thread `Scratch` that a
//! join takes and puts back: it grows to the two trees' fan-out once, and
//! a warm join does not touch the allocator.

use crate::buffer::{IoStats, PageObserver};
use crate::rstar::RStarTree;
use msj_geom::kernels::{self, KernelDispatch};
use msj_geom::{CancelToken, ObjectId, Rect};
use std::cell::Cell;

/// Statistics of one MBR-join execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JoinStats {
    /// Candidate pairs produced (intersecting leaf MBR pairs).
    pub candidates: u64,
    /// Rectangle predicate tests on entry pairs (the paper keeps this
    /// "very low" via restriction + sweeping).
    pub mbr_tests: u64,
    /// Entry-vs-window tests performed by the search-space restriction.
    pub restriction_tests: u64,
    /// Node visits (`logical`, counted by the traversal) and the physical
    /// reads its [`PageObserver`] reported (0 without a buffer).
    pub io: IoStats,
}

/// Computes the MBR-join of two R*-trees, reporting node visits to `pages`.
///
/// `on_pair` receives every candidate pair `(id_a, id_b)` immediately —
/// candidates are streamed to the next step, never materialized (§2.4
/// "the sets of candidates are not stored as intermediate results").
pub fn tree_join<F: FnMut(ObjectId, ObjectId)>(
    a: &RStarTree,
    b: &RStarTree,
    pages: &mut impl PageObserver,
    on_pair: F,
) -> JoinStats {
    with_scratch(|s| traverse(&JoinControl::new(1), a, b, pages, &mut s.nodes, on_pair))
}

/// How [`tree_join_chunked`] runs: everything [`tree_join`] fixes.
#[derive(Clone, Copy)]
pub struct JoinControl<'c> {
    /// Kernel path of the restriction masks. The candidate stream and
    /// every statistic are byte-identical across paths.
    pub dispatch: KernelDispatch,
    /// Polled once per node pair (one page's worth of sweep work); once
    /// cancelled the recursion unwinds without visiting further nodes.
    /// Pairs already streamed stay streamed and the returned stats cover
    /// exactly the work performed, but the trailing partial chunk is
    /// dropped — a cancelled join's candidates are discarded anyway.
    pub cancel: Option<&'c CancelToken>,
    /// Candidate pairs per delivered chunk (at least 1).
    pub chunk_capacity: usize,
}

impl JoinControl<'_> {
    /// Chunks of `chunk_capacity` pairs on the detected kernel path, no
    /// cancellation.
    pub fn new(chunk_capacity: usize) -> Self {
        JoinControl {
            dispatch: KernelDispatch::auto(),
            cancel: None,
            chunk_capacity,
        }
    }
}

/// [`tree_join`] under a [`JoinControl`], delivering candidates in chunks
/// instead of one at a time — each chunk is one batch for a batched sink,
/// on this thread or handed on to downstream workers.
///
/// Every chunk is non-empty and at most `chunk_capacity` long, chunks
/// arrive in traversal order, and their concatenation equals the
/// [`tree_join`] stream. `on_chunk` borrows the one chunk buffer the join
/// fills; a consumer that needs ownership swaps in a replacement
/// (`mem::replace`), and whatever is left is cleared on return.
pub fn tree_join_chunked<F: FnMut(&mut Vec<(ObjectId, ObjectId)>)>(
    control: &JoinControl<'_>,
    a: &RStarTree,
    b: &RStarTree,
    pages: &mut impl PageObserver,
    mut on_chunk: F,
) -> JoinStats {
    let capacity = control.chunk_capacity.max(1);
    let mut emit = |chunk: &mut Vec<(ObjectId, ObjectId)>| {
        on_chunk(chunk);
        chunk.clear();
    };
    with_scratch(|s| {
        let chunk = &mut s.chunk;
        chunk.clear();
        chunk.reserve(capacity);
        let stats = traverse(control, a, b, pages, &mut s.nodes, |id_a, id_b| {
            chunk.push((id_a, id_b));
            if chunk.len() == capacity {
                emit(chunk);
            }
        });
        if !chunk.is_empty() && !control.cancel.is_some_and(|c| c.is_cancelled()) {
            emit(chunk);
        }
        stats
    })
}

/// Everything a join allocates, kept per thread between joins.
#[derive(Default)]
struct Scratch {
    nodes: NodeScratch,
    /// The chunk buffer of [`tree_join_chunked`].
    chunk: Vec<(ObjectId, ObjectId)>,
}

thread_local! {
    static SCRATCH: Cell<Scratch> = Cell::default();
}

/// Runs `f` on this thread's scratch. The scratch is *taken*, so a join
/// started from inside a pair callback finds an empty one and allocates
/// its own instead of aliasing.
fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    let mut scratch = SCRATCH.take();
    let result = f(&mut scratch);
    SCRATCH.set(scratch);
    result
}

/// Scratch of the traversal proper.
#[derive(Default)]
struct NodeScratch {
    /// Restriction hit indices of the side being restricted.
    hits: Vec<u32>,
    /// The restricted entries of the current node pair, in sweep order.
    a: Side,
    b: Side,
    /// Child pairs waiting to be descended into, innermost visit last:
    /// each visit appends its matches, recurses through them and
    /// truncates back.
    pending: Vec<(u32, u32)>,
}

/// One side's restricted entries: sweep columns plus the value (object id
/// or child node) of each.
#[derive(Default)]
struct Side {
    xmin: Vec<f64>,
    ymin: Vec<f64>,
    ymax: Vec<f64>,
    xmax: Vec<f64>,
    val: Vec<u32>,
}

impl Side {
    /// Keeps the entries of `node` that meet `window`; returns the number
    /// tested. A subsequence of the stably sorted node is its own stable
    /// sort, so no order is re-established here.
    fn restrict(
        &mut self,
        dispatch: KernelDispatch,
        window: &Rect,
        tree: &RStarTree,
        node: u32,
        hits: &mut Vec<u32>,
    ) -> u64 {
        let all = tree.entries(node);
        hits.clear();
        kernels::rects_vs_rect(
            dispatch, window, all.xmin, all.ymin, all.xmax, all.ymax, hits,
        );
        self.clear();
        for &k in hits.iter() {
            let k = k as usize;
            self.xmin.push(all.xmin[k]);
            self.ymin.push(all.ymin[k]);
            self.ymax.push(all.ymax[k]);
            self.xmax.push(all.xmax[k]);
            self.val.push(all.vals[k]);
        }
        all.xmin.len() as u64
    }

    fn clear(&mut self) {
        for column in [
            &mut self.xmin,
            &mut self.ymin,
            &mut self.ymax,
            &mut self.xmax,
        ] {
            column.clear();
        }
        self.val.clear();
    }
}

fn traverse<F: FnMut(ObjectId, ObjectId), O: PageObserver>(
    control: &JoinControl<'_>,
    a: &RStarTree,
    b: &RStarTree,
    pages: &mut O,
    scratch: &mut NodeScratch,
    on_pair: F,
) -> JoinStats {
    if a.is_empty() || b.is_empty() || !a.root_rect().intersects(&b.root_rect()) {
        return JoinStats::default();
    }
    let start = pages.physical();
    scratch.pending.clear();
    let mut traversal = Traversal {
        dispatch: control.dispatch,
        cancel: control.cancel,
        a,
        b,
        pages,
        scratch,
        stats: JoinStats::default(),
        on_pair,
    };
    traversal.visit(a.root, b.root);
    let mut stats = traversal.stats;
    stats.io.physical = pages.physical() - start;
    stats
}

struct Traversal<'t, F, O> {
    dispatch: KernelDispatch,
    cancel: Option<&'t CancelToken>,
    a: &'t RStarTree,
    b: &'t RStarTree,
    pages: &'t mut O,
    scratch: &'t mut NodeScratch,
    stats: JoinStats,
    on_pair: F,
}

impl<F: FnMut(ObjectId, ObjectId), O: PageObserver> Traversal<'_, F, O> {
    fn visit(&mut self, pa: u32, pb: u32) {
        // The cooperative cancellation point: one relaxed load per node pair
        // keeps an over-deadline join within one page of extra sweep work.
        if self.cancel.is_some_and(|c| c.is_cancelled()) {
            return;
        }
        let (a, b) = (self.a, self.b);
        let (la, lb) = (a.node_level(pa), b.node_level(pb));
        let pending_from = self.scratch.pending.len();

        if la != lb {
            // Trees of different height: descend the deeper side against
            // the whole other node, children in sweep order, every entry
            // one MBR test.
            let (deep, page, other) = if la > lb {
                (a, pa, b.node_rect(pb))
            } else {
                (b, pb, a.node_rect(pa))
            };
            self.stats.io.logical += 1;
            self.pages.access(deep.page_id(page));
            let entries = deep.entries(page);
            self.stats.mbr_tests += entries.len() as u64;
            for (k, &child) in entries.vals.iter().enumerate() {
                if entries.rect(k).intersects(&other) {
                    let pair = if la > lb { (child, pb) } else { (pa, child) };
                    self.scratch.pending.push(pair);
                }
            }
        } else {
            // Equal levels: fetch both pages, restrict to the common
            // window, and sweep-match the remaining entries.
            self.stats.io.logical += 2;
            self.pages.access(a.page_id(pa));
            self.pages.access(b.page_id(pb));
            let Some(window) = a.node_rect(pa).intersection(&b.node_rect(pb)) else {
                return;
            };
            let NodeScratch {
                hits,
                a: sa,
                b: sb,
                pending,
            } = &mut *self.scratch;
            self.stats.restriction_tests += sa.restrict(self.dispatch, &window, a, pa, hits)
                + sb.restrict(self.dispatch, &window, b, pb, hits);
            let (candidates, on_pair) = (&mut self.stats.candidates, &mut self.on_pair);
            self.stats.mbr_tests += sweep(sa, sb, |va, vb| {
                if la == 0 {
                    *candidates += 1;
                    on_pair(va, vb);
                } else {
                    pending.push((va, vb));
                }
            });
        }

        // Descend into what this visit queued; deeper visits queue behind
        // it and clean up after themselves.
        for k in pending_from..self.scratch.pending.len() {
            let (ca, cb) = self.scratch.pending[k];
            self.visit(ca, cb);
        }
        self.scratch.pending.truncate(pending_from);
    }
}

/// The plane sweep of [BKS 93a] over two x-sorted runs: the run with the
/// smaller `xmin` at its head sweeps the other run up to its `xmax` and
/// reports every entry whose y-extent overlaps. Returns the number of
/// entries scanned — the y-band comparisons made.
fn sweep(a: &Side, b: &Side, mut matched: impl FnMut(u32, u32)) -> u64 {
    // One length per side up front lets the bounds checks go.
    let (na, nb) = (a.val.len(), b.val.len());
    let (ax, ay0, ay1, axm) = (&a.xmin[..na], &a.ymin[..na], &a.ymax[..na], &a.xmax[..na]);
    let (bx, by0, by1, bxm) = (&b.xmin[..nb], &b.ymin[..nb], &b.ymax[..nb], &b.xmax[..nb]);
    let (mut i, mut j, mut tests) = (0, 0, 0u64);
    while i < na && j < nb {
        if ax[i] <= bx[j] {
            let mut k = j;
            while k < nb && bx[k] <= axm[i] {
                tests += 1;
                if (ay0[i] <= by1[k]) & (by0[k] <= ay1[i]) {
                    matched(a.val[i], b.val[k]);
                }
                k += 1;
            }
            i += 1;
        } else {
            let mut k = i;
            while k < na && ax[k] <= bxm[j] {
                tests += 1;
                if (by0[j] <= ay1[k]) & (ay0[k] <= by1[j]) {
                    matched(a.val[k], b.val[j]);
                }
                k += 1;
            }
            j += 1;
        }
    }
    tests
}

/// Reference nested-loops MBR join (§2.3) for correctness checks and the
/// Figure 18 baseline narrative: O(n·m) rectangle tests, no index.
pub fn nested_loops_join<F: FnMut(ObjectId, ObjectId)>(
    a: &[(Rect, ObjectId)],
    b: &[(Rect, ObjectId)],
    mut on_pair: F,
) -> u64 {
    let mut tests = 0;
    for (ra, ida) in a {
        for (rb, idb) in b {
            tests += 1;
            if ra.intersects(rb) {
                on_pair(*ida, *idb);
            }
        }
    }
    tests
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::LruBuffer;
    use crate::rstar::PageLayout;
    use msj_geom::Rect;

    fn grid_items(n_side: usize, offset: f64) -> Vec<(Rect, ObjectId)> {
        let mut items = Vec::new();
        let mut id = 0u32;
        for i in 0..n_side {
            for j in 0..n_side {
                let x = i as f64 * 10.0 + offset;
                let y = j as f64 * 10.0 + offset;
                items.push((Rect::from_bounds(x, y, x + 8.0, y + 8.0), id));
                id += 1;
            }
        }
        items
    }

    fn build(items: &[(Rect, ObjectId)], page: usize) -> RStarTree {
        RStarTree::bulk_load(
            PageLayout {
                page_size: page,
                leaf_entry_bytes: 48,
                dir_entry_bytes: 20,
            },
            items.iter().copied(),
        )
    }

    #[test]
    fn join_matches_nested_loops_reference() {
        let ia = grid_items(9, 0.0);
        let ib = grid_items(9, 4.0);
        let ta = build(&ia, 384);
        let tb = build(&ib, 512); // different page sizes → different heights
        let mut buffer = LruBuffer::new(4096);
        let mut got = Vec::new();
        tree_join(&ta, &tb, &mut buffer, |x, y| got.push((x, y)));
        let mut expect = Vec::new();
        nested_loops_join(&ia, &ib, |x, y| expect.push((x, y)));
        got.sort_unstable();
        expect.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn chunked_join_concatenates_to_the_streamed_join() {
        let ia = grid_items(9, 0.0);
        let ib = grid_items(9, 4.0);
        let ta = build(&ia, 384);
        let tb = build(&ib, 512);
        let mut buffer = LruBuffer::new(4096);
        let mut streamed = Vec::new();
        let streamed_stats = tree_join(&ta, &tb, &mut buffer, |x, y| streamed.push((x, y)));
        for chunk_capacity in [1usize, 7, 64, 100_000] {
            let mut buffer = LruBuffer::new(4096);
            let mut chunked = Vec::new();
            let control = JoinControl::new(chunk_capacity);
            let stats = tree_join_chunked(&control, &ta, &tb, &mut buffer, |chunk| {
                assert!(!chunk.is_empty(), "chunks are never empty");
                assert!(chunk.len() <= chunk_capacity, "chunk overflows capacity");
                chunked.extend_from_slice(chunk);
            });
            assert_eq!(chunked, streamed, "capacity {chunk_capacity}");
            assert_eq!(stats.candidates, streamed_stats.candidates);
        }
        // Zero capacity is clamped, not a panic or an infinite loop.
        let mut buffer = LruBuffer::new(4096);
        let mut n = 0u64;
        tree_join_chunked(&JoinControl::new(0), &ta, &tb, &mut buffer, |chunk| {
            n += chunk.len() as u64
        });
        assert_eq!(n, streamed.len() as u64);
        // A consumer may keep the chunk it is handed.
        let mut buffer = LruBuffer::new(4096);
        let mut owned = Vec::new();
        tree_join_chunked(&JoinControl::new(7), &ta, &tb, &mut buffer, |chunk| {
            owned.push(std::mem::take(chunk))
        });
        assert_eq!(owned.concat(), streamed);
    }

    #[test]
    fn cancelled_traversal_stops_within_one_chunk() {
        let ia = grid_items(12, 0.0);
        let ib = grid_items(12, 4.0);
        let ta = build(&ia, 384);
        let tb = build(&ib, 512);
        let mut buffer = LruBuffer::new(4096);
        let mut full = Vec::new();
        tree_join(&ta, &tb, &mut buffer, |x, y| full.push((x, y)));
        assert!(full.len() > 64);

        // Cancel after the second chunk: delivery stops, the stream so
        // far is a prefix of the full stream, and the trailing partial
        // chunk is suppressed.
        let token = CancelToken::new();
        let mut got = Vec::new();
        let mut chunks = 0;
        let mut buffer = LruBuffer::new(4096);
        let control = JoinControl {
            cancel: Some(&token),
            ..JoinControl::new(16)
        };
        let stats = tree_join_chunked(&control, &ta, &tb, &mut buffer, |chunk| {
            chunks += 1;
            got.extend_from_slice(chunk);
            if chunks == 2 {
                token.cancel();
            }
        });
        assert_eq!(chunks, 2, "no chunks delivered after cancellation");
        assert_eq!(got, full[..got.len()], "prefix of the full stream");
        assert!(got.len() < full.len());
        assert!(
            stats.candidates < full.len() as u64,
            "traversal stopped early"
        );

        // A pre-cancelled token yields no pairs at all.
        let token = CancelToken::new();
        token.cancel();
        let mut buffer = LruBuffer::new(4096);
        let control = JoinControl {
            cancel: Some(&token),
            ..JoinControl::new(1)
        };
        tree_join_chunked(&control, &ta, &tb, &mut buffer, |_| {
            panic!("no pairs expected")
        });
    }

    #[test]
    fn join_stats_are_populated() {
        let ia = grid_items(8, 0.0);
        let ib = grid_items(8, 5.0);
        let ta = build(&ia, 512);
        let tb = build(&ib, 512);
        let mut buffer = LruBuffer::new(4096);
        let stats = tree_join(&ta, &tb, &mut buffer, |_, _| {});
        assert!(stats.candidates > 0);
        assert!(stats.mbr_tests > 0);
        assert!(stats.restriction_tests > 0);
        assert!(stats.io.logical > 0);
        assert!(stats.io.physical > 0);
        assert!(stats.io.physical <= stats.io.logical);
    }

    #[test]
    fn join_of_disjoint_data_spaces_is_empty_and_cheap() {
        let ia = grid_items(6, 0.0);
        let ib: Vec<(Rect, ObjectId)> = grid_items(6, 0.0)
            .into_iter()
            .map(|(r, id)| (r.translated(msj_geom::Point::new(1000.0, 1000.0)), id))
            .collect();
        let ta = build(&ia, 512);
        let tb = build(&ib, 512);
        let mut buffer = LruBuffer::new(4096);
        let stats = tree_join(&ta, &tb, &mut buffer, |_, _| panic!("no pairs expected"));
        assert_eq!(stats.candidates, 0);
        assert_eq!(stats.io.logical, 0, "root rect pretest avoids all I/O");
    }

    #[test]
    fn self_join_contains_identity_pairs() {
        let ia = grid_items(5, 0.0);
        let ta = build(&ia, 512);
        let tb = build(&ia, 512);
        let mut buffer = LruBuffer::new(4096);
        let mut pairs = Vec::new();
        tree_join(&ta, &tb, &mut buffer, |x, y| pairs.push((x, y)));
        for id in 0..25u32 {
            assert!(pairs.contains(&(id, id)), "missing identity pair {id}");
        }
    }

    #[test]
    fn sweep_keeps_mbr_tests_well_below_quadratic() {
        // Within each node pair, the sweep should test far fewer pairs
        // than |A|·|B| of the nodes.
        let ia = grid_items(12, 0.0);
        let ib = grid_items(12, 4.0);
        let ta = build(&ia, 1024);
        let tb = build(&ib, 1024);
        let mut buffer = LruBuffer::new(4096);
        let stats = tree_join(&ta, &tb, &mut buffer, |_, _| {});
        let quadratic = (ia.len() * ib.len()) as u64;
        assert!(
            stats.mbr_tests * 5 < quadratic,
            "mbr tests {} vs quadratic {}",
            stats.mbr_tests,
            quadratic
        );
    }

    #[test]
    fn every_dispatch_path_streams_identical_candidates_and_stats() {
        let ia = grid_items(9, 0.0);
        let ib = grid_items(9, 4.0);
        let ta = build(&ia, 384);
        let tb = build(&ib, 512); // unequal heights exercise dir pruning
        type Cell = (Vec<(ObjectId, ObjectId)>, u64, u64, u64);
        let mut reference: Option<Cell> = None;
        for d in KernelDispatch::all_available() {
            let mut buffer = LruBuffer::new(4096);
            let mut got = Vec::new();
            let control = JoinControl {
                dispatch: d,
                ..JoinControl::new(64)
            };
            let stats = tree_join_chunked(&control, &ta, &tb, &mut buffer, |chunk| {
                got.extend_from_slice(chunk)
            });
            let cell = (
                got,
                stats.candidates,
                stats.mbr_tests,
                stats.restriction_tests,
            );
            match &reference {
                None => reference = Some(cell),
                Some(want) => assert_eq!(&cell, want, "dispatch {}", d.label()),
            }
        }
    }

    #[test]
    fn an_unobserved_join_counts_the_same_node_visits() {
        let ia = grid_items(10, 0.0);
        let ib = grid_items(10, 4.0);
        let ta = build(&ia, 256);
        let tb = build(&ib, 384);
        let mut buffer = LruBuffer::new(4);
        let mut observed = Vec::new();
        let with_buffer = tree_join(&ta, &tb, &mut buffer, |x, y| observed.push((x, y)));
        let mut unobserved = Vec::new();
        let without = tree_join(&ta, &tb, &mut (), |x, y| unobserved.push((x, y)));
        assert_eq!(unobserved, observed);
        assert_eq!(with_buffer.io.logical, buffer.stats().logical);
        assert_eq!(without.io.physical, 0, "no buffer, no reads");
        assert_eq!(
            JoinStats {
                io: with_buffer.io,
                ..without
            },
            with_buffer
        );
    }

    #[test]
    fn small_buffer_causes_more_physical_reads() {
        let ia = grid_items(10, 0.0);
        let ib = grid_items(10, 4.0);
        let ta = build(&ia, 256);
        let tb = build(&ib, 256);
        let mut big = LruBuffer::new(4096);
        let s_big = tree_join(&ta, &tb, &mut big, |_, _| {});
        let mut small = LruBuffer::new(4);
        let s_small = tree_join(&ta, &tb, &mut small, |_, _| {});
        assert_eq!(s_big.candidates, s_small.candidates);
        assert!(s_small.io.physical > s_big.io.physical);
    }
}

//! Golden candidate streams of Step 1.
//!
//! `tree_join` promises more than the candidate *set*: the order of the
//! stream, the `mbr_tests` / `restriction_tests` arithmetic and the
//! `LruBuffer` access sequence are all part of what later steps, the cost
//! model and the paper tables read. The expected values below were
//! captured from the commit *before* the flat column arena landed
//! (entries re-sorted per node-pair visit), on the seeded inputs built
//! here; every kernel dispatch must reproduce them exactly. The two
//! unequal-height digests were re-recorded once, when nodes began to
//! store their entries in sweep order only: the pruning step between
//! trees of unequal height queues children in that order, so their
//! candidates arrive in another order (counts and page reads unchanged).

use msj_geom::{fnv1a64_update, CancelToken, KernelDispatch, ObjectId, Point, Rect};
use msj_sam::{tree_join_chunked, JoinControl, JoinStats, LruBuffer, PageLayout, RStarTree};

type Items = Vec<(Rect, ObjectId)>;

/// SplitMix64 — the test owns its generator so the inputs can never
/// drift with a dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn random_items(seed: u64, n: usize, world: f64, max_side: f64) -> Items {
    let mut rng = Rng(seed);
    (0..n)
        .map(|i| {
            let (x, y) = (rng.unit() * world, rng.unit() * world);
            let (w, h) = (rng.unit() * max_side, rng.unit() * max_side);
            (Rect::from_bounds(x, y, x + w, y + h), i as u32)
        })
        .collect()
}

/// `side × side` cells of 8 × 8 on a pitch of 10: every column of cells
/// shares one `xmin`, so each node holds long runs of sweep-order ties.
fn grid_items(side: usize, dx: f64, dy: f64) -> Items {
    (0..side * side)
        .map(|k| {
            let x = (k / side) as f64 * 10.0 + dx;
            let y = (k % side) as f64 * 10.0 + dy;
            (Rect::from_bounds(x, y, x + 8.0, y + 8.0), k as u32)
        })
        .collect()
}

fn layout(page_size: usize) -> PageLayout {
    PageLayout {
        page_size,
        leaf_entry_bytes: 48,
        dir_entry_bytes: 20,
    }
}

fn str_tree(page_size: usize, items: &Items) -> RStarTree {
    RStarTree::bulk_load(layout(page_size), items.iter().copied())
}

/// `[stream digest, candidates, mbr_tests, restriction_tests, logical,
/// physical]` of one join.
type Golden = [u64; 6];

/// Joins in chunks of 16 and digests the ordered stream; with
/// `cancel_after` the token is cancelled from inside that chunk's
/// delivery, mid-stream.
fn run(
    dispatch: KernelDispatch,
    a: &RStarTree,
    b: &RStarTree,
    buffer_pages: usize,
    cancel_after: Option<usize>,
) -> Golden {
    let token = CancelToken::new();
    let mut buffer = LruBuffer::new(buffer_pages);
    let mut digest = msj_geom::bytes::FNV_OFFSET;
    let mut chunks = 0usize;
    let control = JoinControl {
        dispatch,
        cancel: cancel_after.map(|_| &token),
        ..JoinControl::new(16)
    };
    let stats: JoinStats = tree_join_chunked(&control, a, b, &mut buffer, |chunk| {
        for &(ia, ib) in chunk.iter() {
            digest = fnv1a64_update(digest, &ia.to_le_bytes());
            digest = fnv1a64_update(digest, &ib.to_le_bytes());
        }
        chunks += 1;
        if Some(chunks) == cancel_after {
            token.cancel();
        }
    });
    [
        digest,
        stats.candidates,
        stats.mbr_tests,
        stats.restriction_tests,
        stats.io.logical,
        stats.io.physical,
    ]
}

fn check(
    name: &str,
    a: &RStarTree,
    b: &RStarTree,
    pages: usize,
    cancel: Option<usize>,
    want: Golden,
) {
    for d in KernelDispatch::all_available() {
        let got = run(d, a, b, pages, cancel);
        assert_eq!(got, want, "{name} under {}: {got:#x?}", d.label());
    }
}

#[test]
fn str_trees_of_equal_height() {
    let a = str_tree(1024, &random_items(11, 3000, 1000.0, 18.0));
    let b = str_tree(1024, &random_items(12, 3000, 1000.0, 18.0));
    assert_eq!((a.height(), b.height()), (3, 3));
    check(
        "equal heights",
        &a,
        &b,
        4096,
        None,
        [0xeb2b_7c3f_4eae_51ed, 2780, 13_625, 26_214, 1228, 294],
    );
}

#[test]
fn str_trees_of_unequal_height() {
    let a = str_tree(512, &random_items(21, 3000, 1000.0, 18.0));
    let b = str_tree(2048, &random_items(22, 1200, 1000.0, 30.0));
    assert!(a.height() > b.height(), "{} vs {}", a.height(), b.height());
    check(
        "taller left side",
        &a,
        &b,
        4096,
        None,
        [0x093d_7bd2_0da8_edf1, 2017, 7157, 26_902, 1041, 343],
    );
    check(
        "taller right side",
        &b,
        &a,
        4096,
        None,
        [0x4ade_5a9d_fa05_7ba1, 2017, 7157, 26_902, 1041, 343],
    );
}

#[test]
fn equal_xmin_ties_keep_packing_order() {
    let a = str_tree(512, &grid_items(40, 0.0, 0.0));
    let b = str_tree(768, &grid_items(40, 0.0, 4.0));
    check(
        "grid ties",
        &a,
        &b,
        4096,
        None,
        [0x1611_1c5d_c325_72c4, 3160, 6892, 12_499, 934, 272],
    );
}

#[test]
fn self_join() {
    let a = str_tree(1024, &random_items(31, 2500, 800.0, 20.0));
    check(
        "self join",
        &a,
        &a,
        4096,
        None,
        [0x6c15_9183_c656_0d25, 6512, 18_901, 31_222, 1476, 124],
    );
}

#[test]
fn disjoint_roots_touch_nothing() {
    let items = random_items(41, 800, 500.0, 10.0);
    let far: Items = items
        .iter()
        .map(|&(r, id)| (r.translated(Point::new(5000.0, 5000.0)), id))
        .collect();
    let (a, b) = (str_tree(512, &items), str_tree(512, &far));
    check(
        "disjoint roots",
        &a,
        &b,
        4096,
        None,
        [msj_geom::bytes::FNV_OFFSET, 0, 0, 0, 0, 0],
    );
}

#[test]
fn cancelled_mid_stream_is_the_same_prefix() {
    let a = str_tree(1024, &random_items(11, 3000, 1000.0, 18.0));
    let b = str_tree(1024, &random_items(12, 3000, 1000.0, 18.0));
    check(
        "cancelled after 5 chunks",
        &a,
        &b,
        4096,
        Some(5),
        [0x578f_5f19_a4f3_437f, 82, 911, 612, 28, 19],
    );
}

#[test]
fn four_page_buffer() {
    let a = str_tree(1024, &random_items(11, 3000, 1000.0, 18.0));
    let b = str_tree(1024, &random_items(12, 3000, 1000.0, 18.0));
    check(
        "4-page buffer",
        &a,
        &b,
        4,
        None,
        [0xeb2b_7c3f_4eae_51ed, 2780, 13_625, 26_214, 1228, 839],
    );
}

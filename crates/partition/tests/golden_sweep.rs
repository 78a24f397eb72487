//! The golden output of the partitioned join.
//!
//! `partition_join` promises more than the candidate *set*: the order of
//! the stream (tile-major, each tile in sweep order), the `pair_tests` /
//! `dedup_skipped` arithmetic and the per-tile candidate counts are what
//! the engine's grid backend reports and feeds to the oracle's Steps 2–3.
//! The digest below was recorded from the sweep that scanned repacked
//! SoA columns through a dispatched kernel, on every dispatch path alike;
//! any rewrite of the sweep must reproduce it exactly.

use msj_geom::{fnv1a64, fnv1a64_update, ObjectId, Rect, Relation};
use msj_partition::partition_join;

type Items = Vec<(Rect, ObjectId)>;

/// FNV-1a over every cell below: inputs × tiles × threads.
const GOLDEN: u64 = 0x8297_4f0c_ee39_27a9;

fn mbrs(rel: &Relation) -> Items {
    rel.iter().map(|o| (o.mbr(), o.id)).collect()
}

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

    fn below(&mut self, n: u64) -> f64 {
        (self.next() % n) as f64
    }
}

/// Rectangles on integer corners in a 100 × 100 world, sides 0–12: many
/// `xmin` ties, touching edges, and degenerate (zero-width or
/// zero-height) rectangles.
fn snapped(seed: u64, n: usize) -> Items {
    let mut rng = Rng(seed);
    (0..n)
        .map(|i| {
            let (x, y) = (rng.below(100), rng.below(100));
            let (w, h) = (rng.below(13), rng.below(13));
            (Rect::from_bounds(x, y, x + w, y + h), i as ObjectId)
        })
        .collect()
}

/// The digest of one join: its ordered pairs, both counters and the
/// per-tile candidate counts.
fn cell(a: &Items, b: &Items, tiles: usize, threads: usize) -> u64 {
    let mut h = fnv1a64(&[]);
    let stats = partition_join(a, b, tiles, threads, |x, y| {
        h = fnv1a64_update(h, &x.to_le_bytes());
        h = fnv1a64_update(h, &y.to_le_bytes());
    });
    for n in [stats.pair_tests, stats.dedup_skipped]
        .into_iter()
        .chain([stats.tile_candidates.len() as u64])
        .chain(stats.tile_candidates.iter().copied())
    {
        h = fnv1a64_update(h, &n.to_le_bytes());
    }
    h
}

#[test]
fn the_sweep_reproduces_its_golden_output() {
    let inputs = [
        (
            mbrs(&msj_datagen::skewed_carto(2_500, 8.0, 1)),
            mbrs(&msj_datagen::skewed_carto(2_500, 8.0, 2)),
        ),
        (snapped(3, 2_500), snapped(4, 2_500)),
    ];
    let mut digest = fnv1a64(&[]);
    for (a, b) in &inputs {
        for tiles in [1usize, 3, 8, 16] {
            // Two threads sweep above the parallel threshold, and the
            // funnel replays their tiles in the serial order.
            for threads in [1usize, 2] {
                digest = fnv1a64_update(digest, &cell(a, b, tiles, threads).to_le_bytes());
            }
        }
    }
    assert_eq!(digest, GOLDEN, "got {digest:#018x}");
}

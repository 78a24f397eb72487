//! Step-0 cost probe for the progressive approximation: MER build time
//! per object by vertex-count bucket, how much of the band grid the
//! pruned search evaluates, and the anchor-chord share of the total
//! (ROADMAP "Follow the time" (c): MER build cost per object).
//!
//! ```text
//! cargo run -p msj-approx --release --example time_mer
//! ```

use msj_approx::{longest_horizontal_chord, max_enclosed_rect_counted, MerSearchStats};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Upper vertex-count bounds of the buckets (the last is open).
const BUCKETS: [usize; 6] = [8, 16, 32, 64, 128, usize::MAX];

#[derive(Default, Clone, Copy)]
struct Bucket {
    objects: u64,
    total: Duration,
    chord: Duration,
    stats: MerSearchStats,
}

fn main() {
    let relations = [
        (
            "skewed_carto(10_000, 24.0, 1)",
            msj_datagen::skewed_carto(10_000, 24.0, 1),
        ),
        (
            "small_carto(2_000, 40.0, 1)",
            msj_datagen::small_carto(2_000, 40.0, 1),
        ),
        ("bw_like(1)", msj_datagen::bw_like(1)),
    ];
    for (name, relation) in relations {
        let mut buckets = [Bucket::default(); BUCKETS.len()];
        for o in relation.iter() {
            let b = BUCKETS
                .iter()
                .position(|&upper| o.region.num_vertices() <= upper)
                .expect("last bucket is open");
            let bucket = &mut buckets[b];
            let t = Instant::now();
            black_box(max_enclosed_rect_counted(&o.region, &mut bucket.stats));
            bucket.total += t.elapsed();
            // The search computes the anchor itself; timed again alone
            // for its share.
            let t = Instant::now();
            black_box(longest_horizontal_chord(&o.region));
            bucket.chord += t.elapsed();
            bucket.objects += 1;
        }
        println!("{name}");
        println!(
            "{:>10} {:>8} {:>10} {:>9} {:>12} {:>12} {:>7}",
            "vertices", "objects", "us/object", "chord %", "bands", "evaluated", "eval %"
        );
        let mut all = Bucket::default();
        for (upper, b) in BUCKETS.iter().zip(&buckets) {
            all.objects += b.objects;
            all.total += b.total;
            all.chord += b.chord;
            all.stats.bands_considered += b.stats.bands_considered;
            all.stats.bands_evaluated += b.stats.bands_evaluated;
            let label = if *upper == usize::MAX {
                "more".to_string()
            } else {
                format!("<= {upper}")
            };
            print_row(&label, b);
        }
        print_row("all", &all);
        println!(
            "  MER build {:.1} ms for {} objects\n",
            all.total.as_secs_f64() * 1e3,
            all.objects
        );
    }
}

fn print_row(label: &str, b: &Bucket) {
    if b.objects == 0 {
        return;
    }
    let total = b.total.as_secs_f64();
    println!(
        "{:>10} {:>8} {:>10.1} {:>9.1} {:>12} {:>12} {:>7.1}",
        label,
        b.objects,
        total * 1e6 / b.objects as f64,
        100.0 * b.chord.as_secs_f64() / total,
        b.stats.bands_considered,
        b.stats.bands_evaluated,
        100.0 * b.stats.bands_evaluated as f64 / b.stats.bands_considered.max(1) as f64
    );
}

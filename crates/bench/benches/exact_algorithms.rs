//! Wall-clock companion to Table 7 / Figure 16: the three exact
//! intersection algorithms on hit and false-hit pairs of increasing
//! complexity.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use msj_datagen::{blob, BlobParams};
use msj_exact::{quadratic_intersects, sweep_intersects, trees_intersect, OpCounts, TrStarStore};
use msj_geom::{Point, PolygonWithHoles};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn blob_region(seed: u64, vertices: usize, cx: f64) -> PolygonWithHoles {
    let params = BlobParams {
        vertices,
        radius: 4.0,
        ..BlobParams::default()
    };
    blob(
        &mut StdRng::seed_from_u64(seed),
        Point::new(cx, 0.0),
        &params,
    )
    .into()
}

fn bench_exact(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact_pair_test");
    for &vertices in &[32usize, 128, 512] {
        // A hit pair (overlapping) and a false-hit pair (disjoint with
        // overlapping MBRs — worst case for edge-based algorithms).
        let hit = (blob_region(1, vertices, 0.0), blob_region(2, vertices, 3.0));
        let miss = (
            blob_region(3, vertices, 0.0),
            blob_region(4, vertices, 14.5),
        );

        for (tag, pair) in [("hit", &hit), ("false-hit", &miss)] {
            group.bench_with_input(
                BenchmarkId::new(format!("quadratic/{tag}"), vertices),
                pair,
                |b, (p, q)| {
                    b.iter(|| {
                        let mut counts = OpCounts::new();
                        black_box(quadratic_intersects(p, q, &mut counts))
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("plane_sweep/{tag}"), vertices),
                pair,
                |b, (p, q)| {
                    b.iter(|| {
                        let mut counts = OpCounts::new();
                        black_box(sweep_intersects(p, q, true, &mut counts))
                    })
                },
            );
            // TR* with precomputed trees (the paper's setting: trees are
            // built at insertion time).
            let trees = TrStarStore::from_regions([&pair.0, &pair.1], 3);
            group.bench_with_input(
                BenchmarkId::new(format!("trstar_m3/{tag}"), vertices),
                &trees,
                |b, trees| {
                    b.iter(|| {
                        let mut counts = OpCounts::new();
                        black_box(trees_intersect(trees.get(0), trees.get(1), &mut counts))
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_trstar_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("trstar_preprocessing");
    for &vertices in &[32usize, 128, 512] {
        let region = blob_region(9, vertices, 0.0);
        group.bench_with_input(BenchmarkId::new("build_m3", vertices), &region, |b, r| {
            b.iter(|| black_box(TrStarStore::from_regions([r], 3)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_exact, bench_trstar_build);
criterion_main!(benches);

//! Wall-clock companion to Figure 10: multi-step point and window queries
//! with and without stored approximations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use msj_core::{JoinConfig, SpatialEngine};
use msj_geom::{Point, Rect};
use std::hint::black_box;

fn bench_queries(c: &mut Criterion) {
    let rel = std::sync::Arc::new(msj_datagen::small_carto(200, 32.0, 77));
    let world = rel.bounding_rect().unwrap();
    let mut group = c.benchmark_group("multi_step_queries");

    for (tag, config) in [
        ("mbr_only", JoinConfig::version1()),
        ("5c_mer", JoinConfig::default()),
    ] {
        let engine = SpatialEngine::new(config);
        let dataset = engine.register(rel.clone());
        group.bench_function(BenchmarkId::new("point_query", tag), |b| {
            let mut i = 0usize;
            b.iter(|| {
                i = i.wrapping_add(1);
                let p = Point::new(
                    world.xmin() + world.width() * ((i as f64 * 0.377).fract()),
                    world.ymin() + world.height() * ((i as f64 * 0.611).fract()),
                );
                black_box(engine.point_query_batch(&dataset, &[p]))
            })
        });
        group.bench_function(BenchmarkId::new("window_query_1pct", tag), |b| {
            let side = 0.01 * world.width();
            let mut i = 0usize;
            b.iter(|| {
                i = i.wrapping_add(1);
                let x = world.xmin() + (world.width() - side) * ((i as f64 * 0.299).fract());
                let y = world.ymin() + (world.height() - side) * ((i as f64 * 0.731).fract());
                let window = Rect::from_bounds(x, y, x + side, y + side);
                black_box(engine.window_query_batch(&dataset, &[window]))
            })
        });
    }
    group.finish();
}

fn bench_wkt(c: &mut Criterion) {
    let rel = msj_datagen::small_carto(100, 40.0, 13);
    let mut buf = Vec::new();
    msj_geom::write_relation(&mut buf, &rel).unwrap();
    let text = String::from_utf8(buf).unwrap();
    let mut group = c.benchmark_group("wkt");
    group.bench_function("write_relation_100x40", |b| {
        b.iter(|| {
            let mut out = Vec::with_capacity(text.len());
            msj_geom::write_relation(&mut out, &rel).unwrap();
            black_box(out)
        })
    });
    group.bench_function("read_relation_100x40", |b| {
        b.iter(|| black_box(msj_geom::read_relation(std::io::Cursor::new(&text)).unwrap()))
    });
    group.finish();
}

criterion_group!(benches, bench_queries, bench_wkt);
criterion_main!(benches);

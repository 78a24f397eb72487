//! Wall-clock comparison of the fused execution engine against the PR-1
//! collect-then-chunk executor at several thread counts, on an even
//! cartographic workload and a skewed one (companion to the `fused`
//! repro experiment).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use msj_bench::baseline::PreparedBaseline;
use msj_core::{Backend, Execution, JoinConfig};
use std::hint::black_box;

fn bench_executors(c: &mut Criterion) {
    let mut group = c.benchmark_group("execution_engine");
    group.sample_size(10);
    let workloads = [
        (
            "carto",
            msj_datagen::small_carto(1_500, 24.0, 41),
            msj_datagen::small_carto(1_500, 24.0, 42),
        ),
        (
            "skewed",
            msj_datagen::skewed_carto(1_500, 24.0, 41),
            msj_datagen::skewed_carto(1_500, 24.0, 42),
        ),
    ];
    let base = JoinConfig::builder()
        .backend(Backend::PartitionedSweep {
            tiles_per_axis: 16,
            threads: 1,
        })
        .build();

    for (name, a, b) in &workloads {
        // Step 0 is paid once outside the timed loops: the executors
        // differ only in how they schedule Steps 1-3.
        let prepared = msj_bench::prepare(base, a, b);
        group.bench_with_input(BenchmarkId::new("serial", *name), &(), |bench, ()| {
            bench.iter(|| black_box(prepared.run_with(Execution::Serial).pairs.len()))
        });
        for threads in [1usize, 2, 4, 8] {
            group.bench_with_input(
                BenchmarkId::new("collect_then_chunk", format!("{name}/t{threads}")),
                &threads,
                |bench, &threads| {
                    let mut baseline = PreparedBaseline::new(a, b, &base, threads);
                    bench.iter(|| black_box(baseline.run().pairs.len()))
                },
            );
            group.bench_with_input(
                BenchmarkId::new("fused", format!("{name}/t{threads}")),
                &threads,
                |bench, &threads| {
                    bench.iter(|| {
                        black_box(prepared.run_with(Execution::Fused { threads }).pairs.len())
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_executors);
criterion_main!(benches);

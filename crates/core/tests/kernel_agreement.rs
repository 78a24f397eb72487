//! Kernel agreement: the SIMD dispatch paths must produce the
//! byte-identical join response set as the scalar reference — across
//! both Step-1 backends, serial and fused execution, thread counts 1/4,
//! on cartographic, skewed, holed, and pathological datasets.
//! Selections run no SIMD kernel; their answers are held by
//! `tests/selection_order.rs`, `candidates.rs`'s
//! `selection_probes_agree_across_backends` and the workspace's
//! `tests/selection_trstar_agreement.rs`.
//!
//! Per-kernel unit agreement (lane boundaries, NaN lanes) lives in
//! `msj-geom`; this suite proves the end-to-end gate the benchmarks
//! rely on: `force_scalar` is an observability knob, never a result
//! knob.

use msj_core::{Backend, EngineConfig, Execution, JoinConfig, SpatialEngine};
use msj_geom::{KernelDispatch, ObjectId, Point, Polygon, Relation, SpatialObject};

fn square(id: ObjectId, x: f64, y: f64, side: f64) -> SpatialObject {
    SpatialObject::new(
        id,
        Polygon::new(vec![
            Point::new(x, y),
            Point::new(x + side, y),
            Point::new(x + side, y + side),
            Point::new(x, y + side),
        ])
        .expect("square polygon")
        .into(),
    )
}

/// Degenerate-path stress: stacked identical squares, needle slivers, a
/// far-away huge-coordinate cluster — the shapes that exercise sweep
/// early-stop lanes, duplicate keys, and extreme dynamic range.
fn pathological(offset: f64) -> Relation {
    let mut objects = Vec::new();
    let mut id = 0;
    for _ in 0..6 {
        objects.push(square(id, 5.0 + offset, 5.0, 2.0));
        id += 1;
    }
    for i in 0..6 {
        let y = 4.0 + i as f64 * 0.01;
        objects.push(SpatialObject::new(
            id,
            Polygon::new(vec![
                Point::new(offset, y),
                Point::new(offset + 40.0, y + 0.05),
                Point::new(offset + 40.0, y + 0.1),
            ])
            .expect("needle polygon")
            .into(),
        ));
        id += 1;
    }
    for i in 0..6 {
        objects.push(square(id, 1.0e7 + offset + i as f64 * 1.5, 1.0e7, 2.0));
        id += 1;
    }
    Relation::new(objects)
}

/// Every measured cell of the matrix: backend × execution × threads.
/// `force_scalar` is the only axis under test — each cell runs twice and
/// must agree byte-for-byte.
fn configs() -> Vec<(String, JoinConfig)> {
    let mut cells = Vec::new();
    let backends = [
        ("rstar".to_string(), Backend::RStarTraversal),
        (
            "partitioned".to_string(),
            Backend::PartitionedSweep {
                tiles_per_axis: 6,
                threads: 0,
            },
        ),
    ];
    for (bname, backend) in backends {
        for threads in [1usize, 4] {
            for fused in [false, true] {
                let execution = if fused {
                    Execution::Fused { threads }
                } else {
                    Execution::Serial
                };
                // Serial execution ignores the thread count; emit it
                // once.
                if !fused && threads != 1 {
                    continue;
                }
                let mut builder = JoinConfig::builder().backend(backend).execution(execution);
                if let Backend::PartitionedSweep { tiles_per_axis, .. } = backend {
                    builder = builder.backend(Backend::PartitionedSweep {
                        tiles_per_axis,
                        threads,
                    });
                }
                cells.push((format!("{bname}/fused={fused}/t{threads}"), builder.build()));
            }
        }
    }
    cells
}

fn workloads() -> Vec<(&'static str, Relation, Relation)> {
    vec![
        (
            "carto",
            msj_datagen::small_carto(48, 24.0, 701),
            msj_datagen::small_carto(48, 24.0, 702),
        ),
        (
            "skewed",
            msj_datagen::skewed_carto(48, 24.0, 711),
            msj_datagen::skewed_carto(48, 24.0, 712),
        ),
        (
            "holed",
            msj_datagen::carto_with_holes(40, 24.0, 721),
            msj_datagen::carto_with_holes(40, 24.0, 722),
        ),
        ("pathological", pathological(0.0), pathological(0.7)),
    ]
}

#[test]
fn join_response_sets_are_byte_identical_simd_vs_scalar() {
    for (wname, a, b) in workloads() {
        for (cname, config) in configs() {
            let join = |config: EngineConfig| {
                let engine = SpatialEngine::new(config);
                let (ha, hb) = (engine.register(a.clone()), engine.register(b.clone()));
                engine.prepare_join(&ha, &hb).run()
            };
            let wide = join(config.into());
            let scalar_cfg = EngineConfig {
                force_scalar: true,
                ..config.into()
            };
            assert_eq!(scalar_cfg.kernel_dispatch(), KernelDispatch::Scalar);
            let scalar = join(scalar_cfg);
            assert_eq!(
                wide.pairs, scalar.pairs,
                "{wname}/{cname}: response set diverged"
            );
            // The kernels are counting-identical too: every Step-1/2
            // statistic the engine reports must match the reference.
            assert_eq!(
                wide.stats.mbr_join.candidates, scalar.stats.mbr_join.candidates,
                "{wname}/{cname}: candidates"
            );
            assert_eq!(
                wide.stats.mbr_join.mbr_tests, scalar.stats.mbr_join.mbr_tests,
                "{wname}/{cname}: mbr_tests"
            );
            assert_eq!(
                wide.stats.raster_hits, scalar.stats.raster_hits,
                "{wname}/{cname}: raster_hits"
            );
            assert_eq!(
                wide.stats.raster_drops, scalar.stats.raster_drops,
                "{wname}/{cname}: raster_drops"
            );
            assert_eq!(
                wide.stats.filter_hits_progressive, scalar.stats.filter_hits_progressive,
                "{wname}/{cname}: filter_hits_progressive"
            );
            assert_eq!(
                wide.stats.filter_false_hits, scalar.stats.filter_false_hits,
                "{wname}/{cname}: filter_false_hits"
            );
            assert_eq!(
                wide.stats.exact_tests, scalar.stats.exact_tests,
                "{wname}/{cname}: exact_tests"
            );
        }
    }
}

#[test]
fn env_override_pins_scalar() {
    // `KernelDispatch::select` honors the config knob; the env knob is
    // covered by `msj-geom` unit tests (process-global state is not
    // toggled here).
    let forced = EngineConfig {
        force_scalar: true,
        ..EngineConfig::default()
    };
    assert_eq!(forced.kernel_dispatch(), KernelDispatch::Scalar);
    assert_eq!(
        JoinConfig::default().kernel_dispatch(),
        KernelDispatch::auto()
    );
}

//! Fused-execution agreement: `Execution::Fused` must return the
//! byte-identical (canonically sorted) response set and exactly-merged
//! operation counts as `Execution::Serial` — across the paper's three
//! configurations, both Step-1 backends, and worker counts 1/2/8, plus
//! the empty-relation and single-candidate edge cases and a grid whose
//! candidates all come from one tile.

use msj_core::{Backend, Execution, JoinConfig, MultiStepJoin};
use msj_geom::{ObjectId, Point, Polygon, Relation, SpatialObject};
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn sorted(mut v: Vec<(ObjectId, ObjectId)>) -> Vec<(ObjectId, ObjectId)> {
    v.sort_unstable();
    v
}

fn versions() -> [JoinConfig; 3] {
    [
        JoinConfig::version1(),
        JoinConfig::version2(),
        JoinConfig::version3(),
    ]
}

fn backends() -> [Backend; 2] {
    [
        Backend::RStarTraversal,
        Backend::PartitionedSweep {
            tiles_per_axis: 4,
            threads: 2,
        },
    ]
}

/// Asserts the full fused-vs-serial contract for one relation pair under
/// one base configuration.
fn fused_equals_serial(name: &str, a: &Relation, b: &Relation, base: JoinConfig) {
    let serial =
        MultiStepJoin::new(base.to_builder().execution(Execution::Serial).build()).execute(a, b);
    let expect = sorted(serial.pairs.clone());
    for threads in THREAD_COUNTS {
        let fused = MultiStepJoin::new(
            base.to_builder()
                .execution(Execution::Fused { threads })
                .build(),
        )
        .execute(a, b);
        let label = format!("{name} {:?} x{threads}", base.backend);
        // Response set: byte-identical after canonical sorting (the
        // fused result is already canonically sorted).
        assert_eq!(fused.pairs, expect, "{label}: pairs diverged");
        // Step counters and operation counts merge exactly.
        let (s, f) = (&serial.stats, &fused.stats);
        assert_eq!(f.mbr_join.candidates, s.mbr_join.candidates, "{label}");
        assert_eq!(f.filter_false_hits, s.filter_false_hits, "{label}");
        assert_eq!(
            f.filter_hits_progressive, s.filter_hits_progressive,
            "{label}"
        );
        assert_eq!(
            f.filter_hits_false_area, s.filter_hits_false_area,
            "{label}"
        );
        assert_eq!(f.exact_tests, s.exact_tests, "{label}");
        assert_eq!(f.exact_hits, s.exact_hits, "{label}");
        assert_eq!(f.exact_ops, s.exact_ops, "{label}: op counts diverged");
        assert_eq!(f.result_pairs, s.result_pairs, "{label}");
        // The executor never holds the candidate set: buffering stays
        // under the fan-out's bound on both backends.
        assert!(
            f.peak_buffered_candidates
                <= msj_core::fused_buffer_bound(threads, msj_core::DEFAULT_BATCH_PAIRS),
            "{label}: peak buffer {} over bound",
            f.peak_buffered_candidates
        );
    }
}

#[test]
fn all_versions_and_backends_agree_on_carto_data() {
    let a = msj_datagen::small_carto(40, 24.0, 701);
    let b = msj_datagen::small_carto(40, 24.0, 702);
    for version in versions() {
        for backend in backends() {
            fused_equals_serial(
                "carto",
                &a,
                &b,
                version.to_builder().backend(backend).build(),
            );
        }
    }
}

#[test]
fn empty_relations_agree() {
    let empty = Relation::default();
    let carto = msj_datagen::small_carto(12, 16.0, 711);
    for backend in backends() {
        let base = JoinConfig::builder().backend(backend).build();
        fused_equals_serial("empty-vs-empty", &empty, &empty, base);
        fused_equals_serial("empty-vs-carto", &empty, &carto, base);
        fused_equals_serial("carto-vs-empty", &carto, &empty, base);
    }
}

/// A square of side 2 at `(x, y)`.
fn square(id: ObjectId, x: f64, y: f64) -> SpatialObject {
    SpatialObject::new(
        id,
        Polygon::new(vec![
            Point::new(x, y),
            Point::new(x + 2.0, y),
            Point::new(x + 2.0, y + 2.0),
            Point::new(x, y + 2.0),
        ])
        .expect("square")
        .into(),
    )
}

/// All the work in one tile: a far-corner square stretches an 8 × 8 grid
/// over eight times the data's extent, so every candidate comes out of
/// tile 0. Every thread count still classifies them all, identically.
#[test]
fn one_hot_tile_agrees_at_every_thread_count() {
    let a = msj_datagen::small_carto(60, 24.0, 721);
    let b = msj_datagen::small_carto(60, 24.0, 722);
    let world = a
        .bounding_rect()
        .unwrap()
        .union(&b.bounding_rect().unwrap());
    let side = 8.0 * world.width().max(world.height());
    let mut objects: Vec<SpatialObject> = a.iter().cloned().collect();
    let id = objects.len() as ObjectId;
    objects.push(square(id, world.xmin() + side, world.ymin() + side));
    let a = Relation::new(objects);
    let grid = Backend::PartitionedSweep {
        tiles_per_axis: 8,
        threads: 2,
    };
    for version in versions() {
        let base = version.to_builder().backend(grid).build();
        fused_equals_serial("one-hot-tile", &a, &b, base);
        let serial = MultiStepJoin::new(base).execute(&a, &b);
        let summary = serial.stats.partition.expect("partition summary");
        assert_eq!(summary.nonempty_tiles, 1, "every candidate in one tile");
        assert_eq!(
            summary.busiest_tile_candidates,
            serial.stats.mbr_join.candidates
        );
    }
}

#[test]
fn single_candidate_agrees() {
    // Exactly one candidate pair: two overlapping squares, nothing else.
    let a = Relation::new(vec![square(0, 0.0, 0.0)]);
    let b = Relation::new(vec![square(0, 1.0, 0.0)]);
    for version in versions() {
        for backend in backends() {
            let base = version.to_builder().backend(backend).build();
            fused_equals_serial("single-candidate", &a, &b, base);
            let fused = MultiStepJoin::new(
                base.to_builder()
                    .execution(Execution::Fused { threads: 8 })
                    .build(),
            )
            .execute(&a, &b);
            assert_eq!(fused.pairs, vec![(0, 0)]);
            assert_eq!(fused.stats.mbr_join.candidates, 1);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random workloads × versions × backends × worker counts: the fused
    /// engine is indistinguishable from the serial pipeline.
    #[test]
    fn random_workloads_fuse_identically(
        seed_a in 0u64..400,
        seed_b in 400u64..800,
        version_index in 0usize..3,
        backend_index in 0usize..2,
        holed in any::<bool>(),
    ) {
        let (a, b) = if holed {
            (
                msj_datagen::carto_with_holes(20, 20.0, seed_a),
                msj_datagen::carto_with_holes(20, 20.0, seed_b),
            )
        } else {
            (
                msj_datagen::small_carto(24, 20.0, seed_a),
                msj_datagen::small_carto(24, 20.0, seed_b),
            )
        };
        let base = versions()[version_index]
            .to_builder()
            .backend(backends()[backend_index])
            .build();
        fused_equals_serial("random", &a, &b, base);
    }
}

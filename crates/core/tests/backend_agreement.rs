//! Backend agreement: the partitioned-sweep Step-1 backend must produce
//! the identical response set as the R*-tree traversal and the
//! ground-truth exhaustive join — on cartographic, holed, and
//! pathological datasets, across tile counts 1/4/16 and thread counts
//! 1/2/8.

use msj_core::{ground_truth_join, Backend, Execution, JoinConfig, MultiStepJoin};
use msj_geom::{ObjectId, Point, Polygon, Relation, SpatialObject};
use proptest::prelude::*;

const TILE_COUNTS: [usize; 3] = [1, 4, 16];
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn sorted(mut v: Vec<(ObjectId, ObjectId)>) -> Vec<(ObjectId, ObjectId)> {
    v.sort_unstable();
    v
}

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
/// far-away huge-coordinate cluster.
fn pathological(offset: f64) -> Relation {
    let mut objects = Vec::new();
    let mut id = 0;
    // Identical stacked squares (identical keys in every backend).
    for _ in 0..6 {
        objects.push(square(id, 5.0 + offset, 5.0, 2.0));
        id += 1;
    }
    // Needle polygons: 400:1 aspect ratio, overlapping each other.
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
    // Huge coordinates far from the origin cluster.
    for i in 0..6 {
        objects.push(square(id, 1.0e7 + offset + i as f64 * 1.5, 1.0e7, 2.0));
        id += 1;
    }
    Relation::new(objects)
}

fn agreement_on(name: &str, a: &Relation, b: &Relation) {
    let truth = sorted(ground_truth_join(a, b));
    let rstar = MultiStepJoin::new(JoinConfig::default()).execute(a, b);
    assert_eq!(
        sorted(rstar.pairs.clone()),
        truth,
        "{name}: R* vs ground truth"
    );
    for tiles_per_axis in TILE_COUNTS {
        for threads in THREAD_COUNTS {
            let config = JoinConfig::builder()
                .backend(Backend::PartitionedSweep {
                    tiles_per_axis,
                    threads,
                })
                .build();
            let part = MultiStepJoin::new(config).execute(a, b);
            assert_eq!(
                sorted(part.pairs.clone()),
                truth,
                "{name}: partitioned {tiles_per_axis}x{tiles_per_axis} t{threads} vs truth"
            );
            // Step-1 candidate sets agree too, so the filter statistics
            // are backend-invariant.
            assert_eq!(
                part.stats.mbr_join.candidates, rstar.stats.mbr_join.candidates,
                "{name}: candidate count diverged"
            );
            assert_eq!(part.stats.exact_tests, rstar.stats.exact_tests);
            // And the fused executor agrees on top of the backend, on
            // exactly the sink threads it was asked for — the tile count
            // does not limit them.
            let fused = config
                .to_builder()
                .execution(Execution::Fused { threads })
                .build();
            let par = MultiStepJoin::new(fused).execute(a, b);
            assert_eq!(par.pairs, truth, "{name}: fused execution diverged");
            assert_eq!(par.stats.threads_used, threads as u64, "{name}");
        }
    }
}

#[test]
fn small_carto_agreement() {
    let a = msj_datagen::small_carto(40, 24.0, 501);
    let b = msj_datagen::small_carto(40, 24.0, 502);
    assert!(!ground_truth_join(&a, &b).is_empty());
    agreement_on("small_carto", &a, &b);
}

#[test]
fn holed_agreement() {
    let a = msj_datagen::carto_with_holes(36, 24.0, 511);
    let b = msj_datagen::carto_with_holes(36, 24.0, 512);
    assert!(!ground_truth_join(&a, &b).is_empty());
    agreement_on("holed", &a, &b);
}

#[test]
fn pathological_agreement() {
    let a = pathological(0.0);
    let b = pathological(0.7);
    assert!(!ground_truth_join(&a, &b).is_empty());
    agreement_on("pathological", &a, &b);
}

#[test]
fn empty_and_singleton_agreement() {
    let empty = Relation::default();
    let one = Relation::new(vec![square(0, 0.0, 0.0, 3.0)]);
    let carto = msj_datagen::small_carto(10, 16.0, 521);
    agreement_on("empty-vs-carto", &empty, &carto);
    agreement_on("one-vs-carto", &one, &carto);
    agreement_on("one-vs-one", &one, &one);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random seeds × random backend geometry: the partitioned response
    /// set equals ground truth and the R*-tree backend.
    #[test]
    fn random_workloads_agree(
        seed_a in 0u64..500,
        seed_b in 500u64..1000,
        tiles_index in 0usize..3,
        threads_index in 0usize..3,
        holed in any::<bool>(),
    ) {
        let (a, b) = if holed {
            (
                msj_datagen::carto_with_holes(24, 20.0, seed_a),
                msj_datagen::carto_with_holes(24, 20.0, seed_b),
            )
        } else {
            (
                msj_datagen::small_carto(24, 20.0, seed_a),
                msj_datagen::small_carto(24, 20.0, seed_b),
            )
        };
        let truth = sorted(ground_truth_join(&a, &b));
        let config = JoinConfig::builder()
            .backend(Backend::PartitionedSweep {
                tiles_per_axis: TILE_COUNTS[tiles_index],
                threads: THREAD_COUNTS[threads_index],
            })
            .build();
        let part = MultiStepJoin::new(config).execute(&a, &b);
        prop_assert_eq!(sorted(part.pairs.clone()), truth.clone());
        let rstar = MultiStepJoin::new(JoinConfig::default()).execute(&a, &b);
        prop_assert_eq!(sorted(rstar.pairs.clone()), truth);
        prop_assert_eq!(part.stats.mbr_join.candidates, rstar.stats.mbr_join.candidates);
    }
}

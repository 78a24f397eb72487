//! The batched hot path's acceptance matrix: over STR-packed trees, join
//! *results* are the same across workload shapes × Step-1 backends ×
//! execution policies. (That an STR-packed R*-tree join delivers exactly
//! the candidate set of the nested-loops MBR join — candidate *order*
//! aside — is `msj-sam`'s to say:
//! `crates/sam/tests/proptests.rs::tree_join_equals_nested_loops`.)

use msj::core::{Backend, Execution, JoinConfig, MultiStepJoin};
use msj::geom::{ObjectId, Point, Polygon, Relation};

fn sorted(mut v: Vec<(ObjectId, ObjectId)>) -> Vec<(ObjectId, ObjectId)> {
    v.sort_unstable();
    v
}

/// Thin crossing slivers whose MBRs are useless — the pathological shape
/// from `pathological_inputs.rs`, reused as a loader workload.
fn needle_relations() -> (Relation, Relation) {
    let needle = |x0: f64, y0: f64, dx: f64, dy: f64| {
        let along = Point::new(dx, dy);
        let across = along.perp().normalized().unwrap() * 1e-3;
        Polygon::new(vec![
            Point::new(x0, y0),
            Point::new(x0 + along.x, y0 + along.y),
            Point::new(x0 + along.x + across.x, y0 + along.y + across.y),
            Point::new(x0 + across.x, y0 + across.y),
        ])
        .unwrap()
        .into()
    };
    let a = Relation::from_regions((0..12).map(|i| {
        let t = i as f64 / 12.0 * std::f64::consts::TAU;
        needle(0.0, 0.0, 10.0 * t.cos(), 10.0 * t.sin())
    }));
    let b = Relation::from_regions((0..12).map(|i| {
        let t = (i as f64 + 0.5) / 12.0 * std::f64::consts::TAU;
        needle(
            5.0 * t.cos(),
            5.0 * t.sin(),
            -10.0 * t.sin(),
            10.0 * t.cos(),
        )
    }));
    (a, b)
}

fn workloads() -> Vec<(&'static str, Relation, Relation)> {
    let mut out = vec![
        (
            "carto",
            msj::datagen::small_carto(60, 24.0, 4001),
            msj::datagen::small_carto(60, 24.0, 4002),
        ),
        (
            "holed",
            msj::datagen::carto_with_holes(40, 24.0, 4003),
            msj::datagen::carto_with_holes(40, 24.0, 4004),
        ),
        (
            "skewed",
            msj::datagen::skewed_carto(60, 24.0, 4005),
            msj::datagen::skewed_carto(60, 24.0, 4006),
        ),
    ];
    let (a, b) = needle_relations();
    out.push(("pathological", a, b));
    out
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

/// The full acceptance matrix: response sets must be byte-identical
/// across {R*-traversal, partitioned sweep} × {serial, fused}, on every
/// workload shape.
#[test]
fn loaders_backends_and_executions_agree_everywhere() {
    for (name, a, b) in &workloads() {
        let mut reference: Option<Vec<(ObjectId, ObjectId)>> = None;
        for backend in backends() {
            for execution in [
                Execution::Serial,
                Execution::Fused { threads: 1 },
                Execution::Fused { threads: 4 },
            ] {
                let config = JoinConfig::builder()
                    .backend(backend)
                    .execution(execution)
                    .build();
                let result = MultiStepJoin::new(config).execute(a, b);
                let got = sorted(result.pairs);
                match &reference {
                    None => reference = Some(got),
                    Some(expect) => {
                        assert_eq!(&got, expect, "{name}: {backend:?} × {execution:?} diverged")
                    }
                }
            }
        }
        // And the whole matrix matches the exhaustive exact join.
        let truth = sorted(msj::core::ground_truth_join(a, b));
        assert_eq!(reference.unwrap(), truth, "{name}: matrix != ground truth");
    }
}

/// Per-step timings are populated and account for the pipeline: Step 0 is
/// always nonzero (trees + stores were built), and the Step-2/3 sums are
/// consistent with a join that classified and exact-tested candidates.
#[test]
fn per_step_timings_are_populated() {
    let a = msj::datagen::small_carto(60, 24.0, 4021);
    let b = msj::datagen::small_carto(60, 24.0, 4022);
    for execution in [Execution::Serial, Execution::Fused { threads: 2 }] {
        let config = JoinConfig::builder().execution(execution).build();
        let r = MultiStepJoin::new(config).execute(&a, &b);
        assert!(r.stats.step0_nanos > 0, "{execution:?}: step0");
        assert!(
            r.stats.step2_nanos > 0,
            "{execution:?}: candidates were classified"
        );
        assert!(
            r.stats.step3_nanos > 0,
            "{execution:?}: exact tests ran ({} tests)",
            r.stats.exact_tests
        );
    }
}

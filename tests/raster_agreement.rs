//! The Step-2a raster pre-filter may only *accelerate* the join — never
//! change it. This suite pins the PR-4 acceptance matrix: raster-on vs
//! raster-off response sets must be byte-identical across
//! {backend × execution × threads 1/4} on cartographic, holed,
//! skewed and pathological workloads, and every individual raster
//! decision must be confirmed by the exact geometry.

use msj::core::{
    ground_truth_join, Backend, Execution, FilterOutcome, GeometricFilter, JoinConfig,
    MultiStepJoin, SpatialEngine,
};
use msj::exact::quadratic_intersects;
use msj::geom::{ObjectId, Point, Polygon, PolygonWithHoles, Relation};

fn sorted(mut v: Vec<(ObjectId, ObjectId)>) -> Vec<(ObjectId, ObjectId)> {
    v.sort_unstable();
    v
}

/// Thin crossing slivers whose MBRs are useless (and whose raster
/// signatures are all-PARTIAL on any realistic grid).
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
    let (na, nb) = needle_relations();
    vec![
        (
            "carto",
            msj::datagen::small_carto(48, 24.0, 41),
            msj::datagen::small_carto(48, 24.0, 42),
        ),
        (
            "holed",
            msj::datagen::carto_with_holes(32, 20.0, 43),
            msj::datagen::carto_with_holes(32, 20.0, 44),
        ),
        (
            "skewed",
            msj::datagen::skewed_carto(48, 24.0, 45),
            msj::datagen::skewed_carto(48, 24.0, 46),
        ),
        ("needles", na, nb),
    ]
}

/// The full acceptance matrix: every cell with the stage on must equal
/// the same cell with the stage off, which must equal the ground truth.
#[test]
fn raster_on_equals_raster_off_across_the_matrix() {
    for (name, a, b) in &workloads() {
        let expect = sorted(ground_truth_join(a, b));
        for backend in [
            Backend::RStarTraversal,
            Backend::PartitionedSweep {
                tiles_per_axis: 4,
                threads: 2,
            },
        ] {
            for execution in [
                Execution::Serial,
                Execution::Fused { threads: 1 },
                Execution::Fused { threads: 4 },
            ] {
                let base = JoinConfig::builder()
                    .backend(backend)
                    .execution(execution)
                    .build();
                let off = MultiStepJoin::new(base.to_builder().raster(false).build()).execute(a, b);
                assert_eq!(
                    sorted(off.pairs.clone()),
                    expect,
                    "{name}/{backend:?}/{execution:?} raster-off vs truth"
                );
                let on = MultiStepJoin::new(base).execute(a, b);
                assert_eq!(
                    sorted(on.pairs.clone()),
                    expect,
                    "{name}/{backend:?}/{execution:?} raster-on vs truth"
                );
                // The stage accounted for every candidate...
                let s = &on.stats;
                assert_eq!(
                    s.mbr_join.candidates,
                    s.raster_hits + s.raster_drops + s.raster_inconclusive,
                    "{name}: raster accounting"
                );
                // ...and decided ones never reached later steps.
                assert!(
                    s.exact_tests <= off.stats.exact_tests,
                    "{name}: raster increased exact tests"
                );
            }
        }
    }
}

/// Every single raster decision is confirmed by the exact geometry — not
/// just the aggregate response set.
#[test]
fn every_raster_decision_is_confirmed_by_exact_geometry() {
    for (name, a, b) in &workloads() {
        let config = JoinConfig::default();
        let filter = GeometricFilter::from_config(&config, a, b);
        assert!(filter.raster_active(), "{name}: stage should be on");
        let mut counts = msj::exact::OpCounts::new();
        for oa in a.iter() {
            for ob in b.iter() {
                if !oa.mbr().intersects(&ob.mbr()) {
                    continue;
                }
                let truth = quadratic_intersects(&oa.region, &ob.region, &mut counts);
                match filter.classify(oa.id, ob.id) {
                    FilterOutcome::HitRaster => {
                        assert!(
                            truth,
                            "{name}: raster Hit on disjoint ({}, {})",
                            oa.id, ob.id
                        )
                    }
                    FilterOutcome::DropRaster => assert!(
                        !truth,
                        "{name}: raster Drop on intersecting ({}, {})",
                        oa.id, ob.id
                    ),
                    // Inconclusive raster decisions fall through to the
                    // approximation chain, whose own soundness is pinned
                    // by the existing suites.
                    _ => {}
                }
            }
        }
    }
}

/// Needle slivers never own FULL cells, so the stage can prove drops but
/// no hits — and must leave crossing pairs to the exact step.
#[test]
fn all_partial_signatures_stay_conservative() {
    let (a, b) = needle_relations();
    let r = MultiStepJoin::new(JoinConfig::default()).execute(&a, &b);
    assert_eq!(r.stats.raster_hits, 0, "slivers cannot own FULL cells");
    assert_eq!(sorted(r.pairs.clone()), sorted(ground_truth_join(&a, &b)));
}

/// A joint workspace whose width overflows `f64` has no raster grid: the
/// stage is skipped, as for an empty workspace, instead of gridding one
/// unit of the world and dropping the pairs outside it.
#[test]
fn overflowing_workspace_skips_the_raster_stage() {
    let square = |x: f64, y: f64, side: f64| -> PolygonWithHoles {
        Polygon::new(vec![
            Point::new(x, y),
            Point::new(x + side, y),
            Point::new(x + side, y + side),
            Point::new(x, y + side),
        ])
        .unwrap()
        .into()
    };
    let a = Relation::from_regions([square(0.0, 0.0, 1.0), square(-1e308, 0.0, 1e300)]);
    let b = Relation::from_regions([square(0.5, 0.5, 1.0), square(1e308 - 2e300, 0.0, 1e300)]);
    let expect = vec![(0, 0)];
    assert_eq!(sorted(ground_truth_join(&a, &b)), expect);
    let one_shot = MultiStepJoin::new(JoinConfig::default()).execute(&a, &b);
    assert_eq!(sorted(one_shot.pairs), expect, "one-shot join");
    let engine = SpatialEngine::new(JoinConfig::default());
    let (ha, hb) = (engine.register(a), engine.register(b));
    let prepared = engine.prepare_join(&ha, &hb).run();
    assert_eq!(sorted(prepared.pairs), expect, "engine prepared join");
}

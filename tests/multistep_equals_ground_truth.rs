//! Cross-crate integration: the full multi-step pipeline must return the
//! exact intersection join for representative configurations, including
//! regions with holes.

use msj::approx::{ConservativeKind, ProgressiveKind};
use msj::core::{ground_truth_join, JoinConfig, MultiStepJoin};
use msj::exact::ExactAlgorithm;
use msj::geom::{Point, Polygon, PolygonWithHoles, Relation, SpatialObject};

fn sorted(mut v: Vec<(u32, u32)>) -> Vec<(u32, u32)> {
    v.sort_unstable();
    v
}

#[test]
fn carto_workload_all_versions() {
    let a = msj::datagen::small_carto(60, 30.0, 101);
    let b = msj::datagen::small_carto(60, 30.0, 102);
    let expect = sorted(ground_truth_join(&a, &b));
    assert!(expect.len() > 20, "workload must produce hits");
    for config in [
        JoinConfig::version1(),
        JoinConfig::version2(),
        JoinConfig::version3(),
    ] {
        let got = sorted(MultiStepJoin::new(config).execute(&a, &b).pairs);
        assert_eq!(got, expect, "{config:?}");
    }
}

/// The paper's three versions on cartography with holes, one-shot: the
/// data `engine_serving.rs` joins through the engine under the plans the
/// engine runs.
#[test]
fn holed_carto_workload_all_versions() {
    let a = msj::datagen::carto_with_holes(36, 24.0, 9009);
    let b = msj::datagen::carto_with_holes(36, 24.0, 9010);
    let expect = sorted(ground_truth_join(&a, &b));
    assert!(a.iter().any(|o| !o.region.holes().is_empty()));
    assert!(expect.len() > 10, "workload must produce hits");
    for config in [
        JoinConfig::version1(),
        JoinConfig::version2(),
        JoinConfig::version3(),
    ] {
        let got = sorted(MultiStepJoin::new(config).execute(&a, &b).pairs);
        assert_eq!(got, expect, "{config:?}");
    }
}

#[test]
fn strategy_b_series_is_exact() {
    let base = msj::datagen::small_carto(40, 24.0, 7);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(99);
    let series = msj::datagen::strategy_b("itest", &base, msj::datagen::world(), &mut rng);
    let expect = sorted(ground_truth_join(&series.a, &series.b));
    let got = sorted(
        MultiStepJoin::new(JoinConfig::default())
            .execute(&series.a, &series.b)
            .pairs,
    );
    assert_eq!(got, expect);
}

/// A donut (square with a square hole) and probes inside/outside the hole
/// exercise the hole-handling of every exact algorithm through the whole
/// pipeline.
#[test]
fn regions_with_holes_are_joined_correctly() {
    fn sq(x: f64, y: f64, s: f64) -> Polygon {
        Polygon::new(vec![
            Point::new(x, y),
            Point::new(x + s, y),
            Point::new(x + s, y + s),
            Point::new(x, y + s),
        ])
        .unwrap()
    }
    // Relation A: three donuts in a row.
    let donut = |x: f64| PolygonWithHoles::new(sq(x, 0.0, 10.0), vec![sq(x + 3.0, 3.0, 4.0)]);
    let a = Relation::new(vec![
        SpatialObject::new(0, donut(0.0)),
        SpatialObject::new(1, donut(20.0)),
        SpatialObject::new(2, donut(40.0)),
    ]);
    // Relation B: a square inside the first hole (no intersection), one
    // poking through the second donut's ring (intersection), one covering
    // the third donut entirely (intersection), one far away.
    let b = Relation::new(vec![
        SpatialObject::new(0, sq(4.0, 4.0, 2.0).into()),
        SpatialObject::new(1, sq(24.0, 4.0, 12.0).into()),
        SpatialObject::new(2, sq(38.0, -2.0, 16.0).into()),
        SpatialObject::new(3, sq(100.0, 100.0, 5.0).into()),
    ]);
    let expect = vec![(1u32, 1u32), (2, 2)];
    for exact in [
        ExactAlgorithm::Quadratic,
        ExactAlgorithm::PlaneSweep { restrict: true },
        ExactAlgorithm::TrStar { max_entries: 3 },
    ] {
        let config = JoinConfig::builder().exact(exact).build();
        let got = sorted(MultiStepJoin::new(config).execute(&a, &b).pairs);
        assert_eq!(got, expect, "{exact:?}");
    }
}

#[test]
fn every_conservative_progressive_combination_is_exact() {
    let a = msj::datagen::small_carto(30, 20.0, 301);
    let b = msj::datagen::small_carto(30, 20.0, 302);
    let expect = sorted(ground_truth_join(&a, &b));
    for conservative in [
        None,
        Some(ConservativeKind::Mbc),
        Some(ConservativeKind::Mbe),
        Some(ConservativeKind::Rmbr),
        Some(ConservativeKind::FourCorner),
        Some(ConservativeKind::FiveCorner),
        Some(ConservativeKind::ConvexHull),
    ] {
        for progressive in [None, Some(ProgressiveKind::Mec), Some(ProgressiveKind::Mer)] {
            let config = JoinConfig::builder()
                .conservative(conservative)
                .progressive(progressive)
                .false_area_test(true)
                .build();
            let got = sorted(MultiStepJoin::new(config).execute(&a, &b).pairs);
            assert_eq!(got, expect, "cons {conservative:?} prog {progressive:?}");
        }
    }
}

#[test]
fn self_join_contains_every_object_with_itself() {
    let a = msj::datagen::small_carto(25, 20.0, 55);
    let result = MultiStepJoin::new(JoinConfig::default()).execute(&a, &a);
    for id in 0..a.len() as u32 {
        assert!(result.pairs.contains(&(id, id)), "missing self pair {id}");
    }
}

//! End-to-end property: the multi-step join equals the ground-truth
//! nested-loops exact join for every filter/exact configuration.

use msj_approx::{ConservativeKind, ProgressiveKind};
use msj_core::{ground_truth_join, Backend, Execution, JoinConfig, MultiStepJoin};
use msj_exact::ExactAlgorithm;
use proptest::prelude::*;

fn sorted(mut v: Vec<(u32, u32)>) -> Vec<(u32, u32)> {
    v.sort_unstable();
    v
}

fn conservative_strategy() -> impl Strategy<Value = Option<ConservativeKind>> {
    prop_oneof![
        Just(None),
        Just(Some(ConservativeKind::Mbc)),
        Just(Some(ConservativeKind::Mbe)),
        Just(Some(ConservativeKind::Rmbr)),
        Just(Some(ConservativeKind::FourCorner)),
        Just(Some(ConservativeKind::FiveCorner)),
        Just(Some(ConservativeKind::ConvexHull)),
    ]
}

fn progressive_strategy() -> impl Strategy<Value = Option<ProgressiveKind>> {
    prop_oneof![
        Just(None),
        Just(Some(ProgressiveKind::Mec)),
        Just(Some(ProgressiveKind::Mer)),
    ]
}

fn backend_strategy() -> impl Strategy<Value = Backend> {
    prop_oneof![
        Just(Backend::RStarTraversal),
        Just(Backend::PartitionedSweep {
            tiles_per_axis: 1,
            threads: 1
        }),
        Just(Backend::PartitionedSweep {
            tiles_per_axis: 4,
            threads: 2
        }),
        Just(Backend::PartitionedSweep {
            tiles_per_axis: 16,
            threads: 8
        }),
    ]
}

fn execution_strategy() -> impl Strategy<Value = Execution> {
    prop_oneof![
        Just(Execution::Serial),
        Just(Execution::Fused { threads: 1 }),
        Just(Execution::Fused { threads: 2 }),
        Just(Execution::Fused { threads: 8 }),
    ]
}

/// Sink batch sizes: per pair, odd, and the default.
fn batch_strategy() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), Just(7), Just(1024)]
}

fn exact_strategy() -> impl Strategy<Value = ExactAlgorithm> {
    prop_oneof![
        Just(ExactAlgorithm::Quadratic),
        Just(ExactAlgorithm::PlaneSweep { restrict: true }),
        Just(ExactAlgorithm::PlaneSweep { restrict: false }),
        Just(ExactAlgorithm::TrStar { max_entries: 3 }),
        Just(ExactAlgorithm::TrStar { max_entries: 5 }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn multi_step_join_is_exact_for_any_configuration(
        seed_a in 0u64..1000,
        seed_b in 1000u64..2000,
        conservative in conservative_strategy(),
        progressive in progressive_strategy(),
        false_area_test in any::<bool>(),
        raster in any::<bool>(),
        exact in exact_strategy(),
        backend in backend_strategy(),
        execution in execution_strategy(),
        batch_pairs in batch_strategy(),
        page_size in prop_oneof![Just(1024usize), Just(2048), Just(4096)],
    ) {
        let a = msj_datagen::small_carto(24, 20.0, seed_a);
        let b = msj_datagen::small_carto(24, 20.0, seed_b);
        let config = JoinConfig::builder()
            .backend(backend)
            .page_size(page_size)
            .conservative(conservative)
            .progressive(progressive)
            .false_area_test(false_area_test)
            .raster(raster)
            .exact(exact)
            .execution(execution)
            .batch_pairs(batch_pairs)
            .build();
        let result = MultiStepJoin::new(config).execute(&a, &b);
        let expect = sorted(ground_truth_join(&a, &b));
        prop_assert_eq!(sorted(result.pairs), expect, "config {:?}", config);

        // Statistics identities.
        let s = &result.stats;
        prop_assert_eq!(s.mbr_join.candidates, s.identified() + s.exact_tests);
        prop_assert_eq!(
            s.result_pairs,
            s.raster_hits + s.filter_hits_progressive + s.filter_hits_false_area + s.exact_hits
        );
        if raster {
            prop_assert_eq!(
                s.mbr_join.candidates,
                s.raster_hits + s.raster_drops + s.raster_inconclusive
            );
        } else {
            prop_assert_eq!(s.raster_hits + s.raster_drops + s.raster_inconclusive, 0);
        }
    }
}

//! The multi-step join pipeline (Figure 1): MBR-join → geometric filter →
//! exact geometry processor, with candidates streamed between steps.
//!
//! [`MultiStepJoin`] is the one-shot front over [`crate::PreparedJoin`]:
//! Step 0 for both relations, then one run under the configured
//! [`crate::Execution`] policy.

use crate::config::JoinConfig;
use crate::engine::PreparedJoin;
use crate::stats::MultiStepStats;
use msj_geom::{ObjectId, Relation};
use msj_obs::WorkerLaneSnapshot;

/// The outcome of one multi-step join: the response set plus per-step
/// statistics.
#[derive(Debug, Clone)]
pub struct JoinResult {
    /// The response set: pairs whose regions intersect.
    pub pairs: Vec<(ObjectId, ObjectId)>,
    pub stats: MultiStepStats,
    /// Per-run telemetry (empty when [`msj_obs::ObsConfig`] is
    /// disabled): the Step-1 producer's lane, then one lane per
    /// Steps-2–3 sink.
    pub worker_lanes: Vec<WorkerLaneSnapshot>,
}

/// The multi-step spatial join processor: one join under a
/// [`JoinConfig`] plan, outside any engine.
///
/// ```
/// use msj_core::{JoinConfig, MultiStepJoin};
/// use msj_geom::{Point, Polygon, Relation, SpatialObject};
///
/// let square = |x: f64, y: f64| -> SpatialObject {
///     SpatialObject::new(0, Polygon::new(vec![
///         Point::new(x, y), Point::new(x + 2.0, y),
///         Point::new(x + 2.0, y + 2.0), Point::new(x, y + 2.0),
///     ]).unwrap().into())
/// };
/// let a = Relation::new(vec![square(0.0, 0.0)]);
/// let b = Relation::new(vec![square(1.0, 1.0)]);
/// let result = MultiStepJoin::new(JoinConfig::default()).execute(&a, &b);
/// assert_eq!(result.pairs, vec![(0, 0)]);
/// ```
pub struct MultiStepJoin {
    config: JoinConfig,
}

impl MultiStepJoin {
    pub fn new(config: JoinConfig) -> Self {
        MultiStepJoin { config }
    }

    pub fn config(&self) -> &JoinConfig {
        &self.config
    }

    /// Runs the full three-step join of `rel_a` with `rel_b` under the
    /// configured [`crate::Execution`] policy: builds the owned
    /// [`PreparedJoin`] a [`crate::SpatialEngine`] runs (Step 0 from
    /// scratch, over a copy of each relation — the prepared join owns
    /// its inputs; a self-join's one copy serves both sides), its Step 2
    /// the plan's whole filter, §5's approximations included
    /// ([`crate::GeometricFilter::from_config`]), runs it once and drops
    /// it. The run is always timed,
    /// picks its kernels by [`msj_geom::KernelDispatch::auto`] and has no
    /// fault plan; nothing is recorded anywhere but in the returned
    /// statistics. To pay Step 0 once for many runs — or to run under an
    /// [`crate::EngineConfig`]'s settings — register the relations on an
    /// engine and use [`crate::SpatialEngine::prepare_join`].
    pub fn execute(&self, rel_a: &Relation, rel_b: &Relation) -> JoinResult {
        PreparedJoin::one_shot(&self.config, rel_a, rel_b).run()
    }
}

/// Ground-truth intersection join by exhaustive pairwise exact tests
/// (nested loops over the exact geometry) — the reference the multi-step
/// result must equal.
pub fn ground_truth_join(rel_a: &Relation, rel_b: &Relation) -> Vec<(ObjectId, ObjectId)> {
    let mut counts = msj_exact::OpCounts::new();
    let mut pairs = Vec::new();
    for a in rel_a.iter() {
        for b in rel_b.iter() {
            if !a.mbr().intersects(&b.mbr()) {
                continue;
            }
            if msj_exact::quadratic_intersects(&a.region, &b.region, &mut counts) {
                pairs.push((a.id, b.id));
            }
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use msj_exact::ExactAlgorithm;

    fn blob_relation(seed: u64, count: usize) -> Relation {
        msj_datagen::small_carto(count, 24.0, seed)
    }

    fn sorted(mut v: Vec<(ObjectId, ObjectId)>) -> Vec<(ObjectId, ObjectId)> {
        v.sort_unstable();
        v
    }

    #[test]
    fn all_versions_produce_the_ground_truth() {
        let a = blob_relation(11, 48);
        let b = blob_relation(12, 48);
        let expect = sorted(ground_truth_join(&a, &b));
        assert!(!expect.is_empty(), "test data should produce hits");
        for config in [
            JoinConfig::version1(),
            JoinConfig::version2(),
            JoinConfig::version3(),
        ] {
            let result = MultiStepJoin::new(config).execute(&a, &b);
            assert_eq!(
                sorted(result.pairs.clone()),
                expect.clone(),
                "config {config:?} wrong result"
            );
        }
    }

    #[test]
    fn filter_configurations_agree_and_reduce_exact_tests() {
        let a = blob_relation(21, 40);
        let b = blob_relation(22, 40);
        let v1 = MultiStepJoin::new(JoinConfig::version1()).execute(&a, &b);
        let v3 = MultiStepJoin::new(JoinConfig::version3()).execute(&a, &b);
        assert_eq!(sorted(v1.pairs.clone()), sorted(v3.pairs.clone()));
        // Version 1 sends every candidate to the exact step.
        assert_eq!(v1.stats.exact_tests, v1.stats.mbr_join.candidates);
        // Version 3 filters a substantial share.
        assert!(
            v3.stats.exact_tests < v1.stats.exact_tests,
            "filter must reduce exact tests ({} vs {})",
            v3.stats.exact_tests,
            v1.stats.exact_tests
        );
        assert!(v3.stats.identified() > 0);
    }

    #[test]
    fn stats_identities_hold() {
        let a = blob_relation(31, 36);
        let b = blob_relation(32, 36);
        let r = MultiStepJoin::new(JoinConfig::version3()).execute(&a, &b);
        let s = &r.stats;
        assert_eq!(
            s.mbr_join.candidates,
            s.identified() + s.exact_tests,
            "every candidate is classified or tested"
        );
        assert_eq!(
            s.result_pairs,
            s.raster_hits + s.filter_hits_progressive + s.filter_hits_false_area + s.exact_hits
        );
        assert_eq!(r.pairs.len() as u64, s.result_pairs);
        // Step-2a accounting: every candidate passes through the raster
        // stage exactly once (the stage is on in version 3).
        assert_eq!(
            s.mbr_join.candidates,
            s.raster_hits + s.raster_drops + s.raster_inconclusive
        );
        assert!(s.raster_hits + s.raster_drops > 0, "stage decided nothing");
    }

    #[test]
    fn false_area_test_only_adds_hits_not_pairs() {
        let a = blob_relation(41, 30);
        let b = blob_relation(42, 30);
        let without = MultiStepJoin::new(JoinConfig {
            false_area_test: false,
            ..JoinConfig::version2()
        })
        .execute(&a, &b);
        let with = MultiStepJoin::new(JoinConfig {
            false_area_test: true,
            ..JoinConfig::version2()
        })
        .execute(&a, &b);
        assert_eq!(sorted(without.pairs.clone()), sorted(with.pairs.clone()));
        // With the false-area test enabled, some hits may move from the
        // exact step into the filter, never the other way.
        assert!(with.stats.exact_tests <= without.stats.exact_tests);
    }

    #[test]
    fn raster_stage_never_changes_the_response_set() {
        let a = blob_relation(71, 40);
        let b = blob_relation(72, 40);
        let on = MultiStepJoin::new(JoinConfig::default()).execute(&a, &b);
        let off = MultiStepJoin::new(JoinConfig {
            raster: false,
            ..JoinConfig::default()
        })
        .execute(&a, &b);
        assert_eq!(sorted(on.pairs.clone()), sorted(off.pairs.clone()));
        // Off → the stage reports nothing.
        let s = &off.stats;
        assert_eq!(s.raster_hits + s.raster_drops + s.raster_inconclusive, 0);
        assert_eq!(s.step2a_nanos, 0);
        // On → decided candidates never reach later stages.
        assert!(on.stats.exact_tests <= off.stats.exact_tests);
        assert!(on.stats.filter_false_hits <= off.stats.filter_false_hits);
    }

    #[test]
    fn quadratic_exact_also_agrees() {
        let a = blob_relation(51, 24);
        let b = blob_relation(52, 24);
        let expect = sorted(ground_truth_join(&a, &b));
        let r = MultiStepJoin::new(JoinConfig {
            exact: ExactAlgorithm::Quadratic,
            ..JoinConfig::version2()
        })
        .execute(&a, &b);
        assert_eq!(sorted(r.pairs), expect);
    }

    #[test]
    fn partitioned_backend_produces_the_ground_truth() {
        use crate::config::Backend;
        let a = blob_relation(13, 48);
        let b = blob_relation(14, 48);
        let expect = sorted(ground_truth_join(&a, &b));
        assert!(!expect.is_empty());
        let serial = MultiStepJoin::new(JoinConfig::default()).execute(&a, &b);
        for tiles_per_axis in [1usize, 4, 16] {
            let config = JoinConfig {
                backend: Backend::PartitionedSweep {
                    tiles_per_axis,
                    threads: 2,
                },
                ..JoinConfig::default()
            };
            let result = MultiStepJoin::new(config).execute(&a, &b);
            assert_eq!(
                sorted(result.pairs.clone()),
                expect,
                "tiles {tiles_per_axis}"
            );
            // The candidate set matches the R*-tree backend exactly, so
            // the filter statistics match too.
            assert_eq!(
                result.stats.mbr_join.candidates,
                serial.stats.mbr_join.candidates
            );
            assert_eq!(result.stats.exact_tests, serial.stats.exact_tests);
            let summary = result.stats.partition.expect("partition summary");
            assert_eq!(summary.tiles_per_axis, tiles_per_axis as u64);
        }
        assert!(serial.stats.partition.is_none());
    }

    #[test]
    fn empty_relations_join_to_empty() {
        let a = Relation::default();
        let b = blob_relation(61, 10);
        let r = MultiStepJoin::new(JoinConfig::default()).execute(&a, &b);
        assert!(r.pairs.is_empty());
        assert_eq!(r.stats.mbr_join.candidates, 0);
    }

    #[test]
    fn doc_example_runs() {
        // Mirror of the struct-level doc example.
        use msj_geom::{Point, Polygon, SpatialObject};
        let square = |x: f64, y: f64| {
            SpatialObject::new(
                0,
                Polygon::new(vec![
                    Point::new(x, y),
                    Point::new(x + 2.0, y),
                    Point::new(x + 2.0, y + 2.0),
                    Point::new(x, y + 2.0),
                ])
                .unwrap()
                .into(),
            )
        };
        let a = Relation::new(vec![square(0.0, 0.0)]);
        let b = Relation::new(vec![square(1.0, 1.0)]);
        let result = MultiStepJoin::new(JoinConfig::default()).execute(&a, &b);
        assert_eq!(result.pairs, vec![(0, 0)]);
    }
}

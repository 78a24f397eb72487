//! The resident engine's serving contract:
//!
//! * an owned `PreparedJoin` (no borrowed lifetime) built once runs
//!   repeatedly — Serial and Fused ×4 — with byte-identical response
//!   sets and the one-shot pipeline's statistics on every run;
//! * an `Arc<PreparedJoin>` is shared across threads, every thread
//!   getting the identical response set and the statistics of a run
//!   alone;
//! * the unified `Request`/`Response` surface agrees with the one-shot
//!   pipeline and the linear-scan ground truth.

use msj::core::{
    Execution, JoinConfig, MultiStepJoin, MultiStepStats, Request, Response, SpatialEngine,
};
use msj::geom::{Point, Rect};
use std::sync::Arc;

fn sorted(mut v: Vec<(u32, u32)>) -> Vec<(u32, u32)> {
    v.sort_unstable();
    v
}

/// One owned prepared join, 10 runs under Serial and Fused ×4 each —
/// byte-identical response sets, and every run's Step 1 (node visits
/// included) and Steps 2–3 counters those of the one-shot reference.
#[test]
fn owned_prepared_join_is_stable_over_ten_runs() {
    let a = msj::datagen::small_carto(60, 24.0, 9001);
    let b = msj::datagen::small_carto(60, 24.0, 9002);
    let reference = MultiStepJoin::new(JoinConfig::default()).execute(&a, &b);
    let engine = SpatialEngine::new(JoinConfig::default());
    let (ha, hb) = (engine.register(a), engine.register(b));
    let prepared = engine.prepare_join(&ha, &hb);

    for execution in [Execution::Serial, Execution::Fused { threads: 4 }] {
        let expect_pairs = match execution {
            Execution::Serial => reference.pairs.clone(),
            Execution::Fused { .. } => sorted(reference.pairs.clone()),
        };
        for run in 0..10 {
            let result = prepared.run_with(execution);
            assert_eq!(
                result.pairs, expect_pairs,
                "{execution:?} run {run}: response set drifted"
            );
            let s = result.stats;
            assert_eq!(
                s.mbr_join, reference.stats.mbr_join,
                "{execution:?} run {run}: Step 1 drifted"
            );
            assert_eq!(s.raster_hits, reference.stats.raster_hits);
            assert_eq!(s.raster_drops, reference.stats.raster_drops);
            assert_eq!(s.filter_false_hits, reference.stats.filter_false_hits);
            assert_eq!(
                s.filter_hits_progressive,
                reference.stats.filter_hits_progressive
            );
            assert_eq!(s.exact_tests, reference.stats.exact_tests);
            assert_eq!(s.exact_hits, reference.stats.exact_hits);
            assert_eq!(s.exact_ops, reference.stats.exact_ops);
            assert_eq!(s.result_pairs, reference.stats.result_pairs);
        }
    }
    // The prepared join retains its last run's stats for admission.
    assert!(prepared.last_stats().is_some());
}

/// A run's statistics without what the clock and the fan-out's
/// scheduling decide: the `*_nanos` and the fused queue's peak.
fn deterministic(mut s: MultiStepStats) -> MultiStepStats {
    s.step0_nanos = 0;
    s.step1_nanos = 0;
    s.step2_nanos = 0;
    s.step2a_nanos = 0;
    s.step3_nanos = 0;
    s.peak_buffered_candidates = 0;
    s
}

/// `Arc<PreparedJoin>` shared across threads — every thread re-runs the
/// resident join, several at once, and sees the identical response set
/// and the statistics of the same join run alone, one-shot.
#[test]
fn prepared_join_is_shared_across_threads() {
    let a = msj::datagen::small_carto(50, 24.0, 9003);
    let b = msj::datagen::small_carto(50, 24.0, 9004);
    // Mix execution policies across threads.
    let executions = [Execution::Serial, Execution::Fused { threads: 2 }];
    let alone = executions.map(|execution| {
        let config = JoinConfig::builder().execution(execution).build();
        deterministic(MultiStepJoin::new(config).execute(&a, &b).stats)
    });
    let engine = SpatialEngine::new(JoinConfig::default());
    let (ha, hb) = (engine.register(a), engine.register(b));
    let prepared: Arc<_> = engine.prepare_join(&ha, &hb);
    let expect = prepared.run_with(executions[1]).pairs;
    assert!(!expect.is_empty());

    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let shared = Arc::clone(&prepared);
                scope.spawn(move || {
                    let result = shared.run_with(executions[i % 2]);
                    (sorted(result.pairs), result.stats)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (i, (got, stats)) in results.iter().enumerate() {
        assert_eq!(got, &sorted(expect.clone()), "thread {i} diverged");
        assert_eq!(deterministic(*stats), alone[i % 2], "thread {i} stats");
    }
}

/// The engine itself is shared across threads serving mixed traffic.
#[test]
fn engine_serves_batches_from_multiple_threads() {
    let rel = msj::datagen::small_carto(40, 24.0, 9005);
    let world = rel.bounding_rect().unwrap();
    let engine = Arc::new(SpatialEngine::new(JoinConfig::default()));
    let h = engine.register(rel);
    let expect = {
        let Ok(Response::Join(join)) = engine.submit(Request::SelfJoin {
            dataset: h.id(),
            execution: None,
        }) else {
            panic!("self-join failed");
        };
        join.pairs
    };
    std::thread::scope(|scope| {
        for t in 0..3 {
            let engine = Arc::clone(&engine);
            let expect = expect.clone();
            let id = h.id();
            scope.spawn(move || {
                let p = Point::new(
                    world.xmin() + world.width() * 0.3,
                    world.ymin() + world.height() * (0.2 + 0.2 * t as f64),
                );
                let responses = engine.submit_batch([
                    Request::SelfJoin {
                        dataset: id,
                        execution: Some(Execution::Fused { threads: 2 }),
                    },
                    Request::Point {
                        dataset: id,
                        point: p,
                    },
                    Request::Window {
                        dataset: id,
                        window: Rect::from_bounds(p.x, p.y, p.x + 1.0, p.y + 1.0),
                    },
                ]);
                let Ok(Response::Join(join)) = &responses[0] else {
                    panic!("thread {t}: join failed");
                };
                assert_eq!(sorted(join.pairs.clone()), sorted(expect), "thread {t}");
                assert!(responses[1].is_ok() && responses[2].is_ok());
            });
        }
    });
}

/// The serving surface agrees with the classic one-shot pipeline on the
/// same data and configuration (the migration is behavior-preserving),
/// under every plan the engine runs. The paper's versions 2 and 3 run
/// one-shot only; `holed_carto_workload_all_versions` in
/// `tests/multistep_equals_ground_truth.rs` holds them to the exact join
/// on this data.
#[test]
fn engine_join_equals_one_shot_execute() {
    let a = msj::datagen::carto_with_holes(36, 24.0, 9009);
    let b = msj::datagen::carto_with_holes(36, 24.0, 9010);
    for config in [JoinConfig::version1(), JoinConfig::default()] {
        let one_shot = MultiStepJoin::new(config).execute(&a, &b);
        let engine = SpatialEngine::new(config);
        let (ha, hb) = (engine.register(a.clone()), engine.register(b.clone()));
        let Ok(Response::Join(join)) = engine.submit(Request::Join {
            a: ha.id(),
            b: hb.id(),
            execution: None,
        }) else {
            panic!("join failed for {config:?}");
        };
        assert_eq!(join.pairs, one_shot.pairs, "{config:?}");
        assert_eq!(join.stats.exact_ops, one_shot.stats.exact_ops, "{config:?}");
        // The response carries §5 accounting with observed yields.
        assert!(join.admission.estimated_s >= 0.0);
        assert_eq!(
            join.admission.cost.filter_yield_observed,
            join.stats.identified_fraction()
        );
    }
}

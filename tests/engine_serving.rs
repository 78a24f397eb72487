//! The resident engine's serving contract:
//!
//! * an owned `PreparedJoin` (no borrowed lifetime) built once runs
//!   repeatedly — Serial and Fused ×4 — with byte-identical response
//!   sets and stable statistics;
//! * an `Arc<PreparedJoin>` is shared across threads, every thread
//!   getting the identical response set;
//! * the unified `Request`/`Response` surface agrees with the one-shot
//!   pipeline and the linear-scan ground truth.

use msj::core::{Execution, JoinConfig, MultiStepJoin, Request, Response, SpatialEngine};
use msj::geom::{Point, Rect};
use std::sync::Arc;

fn sorted(mut v: Vec<(u32, u32)>) -> Vec<(u32, u32)> {
    v.sort_unstable();
    v
}

/// Satellite: one owned prepared join, 10 runs under Serial and Fused ×4
/// each — byte-identical response sets, stable statistics.
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
        let mut steady: Option<msj::core::MultiStepStats> = None;
        for run in 0..10 {
            let result = prepared.run_with(execution);
            assert_eq!(
                result.pairs, expect_pairs,
                "{execution:?} run {run}: response set drifted"
            );
            let s = result.stats;
            // Deterministic counters are identical on every run.
            assert_eq!(s.mbr_join.candidates, reference.stats.mbr_join.candidates);
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
            // The simulated I/O reaches a steady state after the first
            // run of this execution mode (warm LRU buffer).
            if run >= 1 {
                if let Some(prev) = steady {
                    assert_eq!(
                        s.mbr_join.io.physical, prev.mbr_join.io.physical,
                        "{execution:?} run {run}: warm-buffer I/O not steady"
                    );
                }
                steady = Some(s);
            }
        }
    }
    // The prepared join retains its last run's stats for admission.
    assert!(prepared.last_stats().is_some());
}

/// Satellite: `Arc<PreparedJoin>` shared across threads — every thread
/// re-runs the resident join and sees the identical response set.
#[test]
fn prepared_join_is_shared_across_threads() {
    let a = msj::datagen::small_carto(50, 24.0, 9003);
    let b = msj::datagen::small_carto(50, 24.0, 9004);
    let engine = SpatialEngine::new(JoinConfig::default());
    let (ha, hb) = (engine.register(a), engine.register(b));
    let prepared: Arc<_> = engine.prepare_join(&ha, &hb);
    let expect = prepared.run_with(Execution::Fused { threads: 2 }).pairs;
    assert!(!expect.is_empty());

    let results: Vec<Vec<(u32, u32)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let shared = Arc::clone(&prepared);
                scope.spawn(move || {
                    // Mix execution policies across threads.
                    let execution = if i % 2 == 0 {
                        Execution::Serial
                    } else {
                        Execution::Fused { threads: 2 }
                    };
                    sorted(shared.run_with(execution).pairs)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (i, got) in results.iter().enumerate() {
        assert_eq!(got, &sorted(expect.clone()), "thread {i} diverged");
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
/// same data and configuration (the migration is behavior-preserving).
#[test]
fn engine_join_equals_one_shot_execute() {
    let a = msj::datagen::carto_with_holes(36, 24.0, 9009);
    let b = msj::datagen::carto_with_holes(36, 24.0, 9010);
    for config in [
        JoinConfig::version1(),
        JoinConfig::version2(),
        JoinConfig::version3(),
    ] {
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

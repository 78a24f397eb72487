//! Chaos agreement: the engine under deterministic fault injection.
//!
//! For every cell of the fault matrix — {worker_panic, slow_worker,
//! cancel} × {backend} × {execution / threads} — the suite asserts the
//! three robustness invariants:
//!
//! 1. **Completed responses are byte-identical** to the fault-free run
//!    under the same configuration (stragglers never change answers);
//! 2. **Failed requests return the matching [`EngineError`] variant**
//!    (injected panics surface as `WorkerPanicked`, injected
//!    cancellation as `Cancelled`) — never a poisoned lock, never a
//!    process abort;
//! 3. **The same engine instance serves a clean follow-up** request
//!    byte-identically after the fault — no state is poisoned.
//!
//! Seeds come from `MSJ_FAULT_SEED` when set (the CI chaos job sweeps
//! several fixed values); otherwise a fixed default set runs. Faults are
//! one-shot per engine by design, which is exactly what invariant 3
//! needs.

use msj::core::{
    Backend, CancelToken, EngineConfig, EngineError, Execution, FaultConfig, FaultKind, JoinConfig,
    Request, Response, SpatialEngine,
};
use msj::fault::FaultSession;
use msj::geom::Relation;
use std::sync::Barrier;

/// Small batches so every run crosses at least `msj::fault::BATCH_SPREAD`
/// batch boundaries — a seed-targeted fault is then guaranteed to land.
const BATCH: usize = 16;

fn seeds() -> Vec<u64> {
    match std::env::var("MSJ_FAULT_SEED")
        .ok()
        .and_then(|s| s.trim().parse::<u64>().ok())
    {
        Some(seed) => vec![seed],
        None => vec![11, 42, 977],
    }
}

fn matrix() -> Vec<(Backend, Execution)> {
    let backends = [
        Backend::RStarTraversal,
        Backend::PartitionedSweep {
            tiles_per_axis: 6,
            threads: 0,
        },
    ];
    let executions = [
        Execution::Serial,
        Execution::Fused { threads: 1 },
        Execution::Fused { threads: 4 },
    ];
    backends
        .iter()
        .flat_map(|&b| executions.iter().map(move |&e| (b, e)))
        .collect()
}

fn config(backend: Backend, execution: Execution, fault: FaultConfig) -> EngineConfig {
    let join = JoinConfig::builder()
        .backend(backend)
        .execution(execution)
        .batch_pairs(BATCH)
        .build();
    EngineConfig {
        fault,
        ..join.into()
    }
}

fn engine_for(config: EngineConfig, a: &Relation, b: &Relation) -> (SpatialEngine, Request) {
    let engine = SpatialEngine::new(config);
    let ha = engine.register(a.clone());
    let hb = engine.register(b.clone());
    let request = Request::Join {
        a: ha.id(),
        b: hb.id(),
        execution: None,
    };
    (engine, request)
}

fn join_pairs(response: Response) -> Vec<(u32, u32)> {
    match response {
        Response::Join(resp) => resp.pairs,
        other => panic!("expected a join response, got {other:?}"),
    }
}

#[test]
fn fault_matrix_agreement_and_recovery() {
    let a = msj::datagen::small_carto(120, 24.0, 9001);
    let b = msj::datagen::small_carto(120, 24.0, 9002);
    let seeds = seeds();
    for (backend, execution) in matrix() {
        // Fault-free reference for this cell, once.
        let (clean_engine, clean_request) =
            engine_for(config(backend, execution, FaultConfig::disabled()), &a, &b);
        let baseline = join_pairs(clean_engine.submit(clean_request).unwrap());
        assert!(
            !baseline.is_empty(),
            "degenerate cell {backend:?}/{execution:?}"
        );

        for &seed in &seeds {
            // --- worker_panic: fails with WorkerPanicked, then recovers.
            let (engine, request) = engine_for(
                config(
                    backend,
                    execution,
                    FaultConfig::seeded(seed, FaultKind::WorkerPanic),
                ),
                &a,
                &b,
            );
            match engine.submit(request) {
                Err(EngineError::WorkerPanicked { message, .. }) => {
                    assert!(message.contains("injected fault"), "{message}");
                }
                other => panic!(
                    "worker_panic seed {seed} on {backend:?}/{execution:?}: expected \
                     WorkerPanicked, got {other:?}"
                ),
            }
            let recovered = join_pairs(engine.submit(request).unwrap());
            assert_eq!(
                recovered, baseline,
                "post-panic follow-up drifted (seed {seed}, {backend:?}/{execution:?})"
            );
            let prom = engine.metrics().render_prometheus();
            assert!(prom.contains("msj_worker_panics_total 1"));

            // --- slow_worker: a straggler, not a failure — identical
            // answers, just later.
            let (engine, request) = engine_for(
                config(
                    backend,
                    execution,
                    FaultConfig::seeded(seed, FaultKind::SlowWorker { millis: 5 }),
                ),
                &a,
                &b,
            );
            let stalled = join_pairs(engine.submit(request).unwrap());
            assert_eq!(
                stalled, baseline,
                "straggler changed answers (seed {seed}, {backend:?}/{execution:?})"
            );

            // --- cancel: the injected cancellation trips the caller's
            // token mid-run; the follow-up (fault spent) completes.
            let (engine, request) = engine_for(
                config(
                    backend,
                    execution,
                    FaultConfig::seeded(seed, FaultKind::CancelAtBatch { batch: 0 }),
                ),
                &a,
                &b,
            );
            let token = CancelToken::new();
            match engine.submit_with_cancel(request, &token) {
                Err(EngineError::Cancelled { .. }) => {}
                other => panic!(
                    "cancel seed {seed} on {backend:?}/{execution:?}: expected Cancelled, \
                     got {other:?}"
                ),
            }
            let recovered = join_pairs(engine.submit(request).unwrap());
            assert_eq!(
                recovered, baseline,
                "post-cancel follow-up drifted (seed {seed}, {backend:?}/{execution:?})"
            );
            let prom = engine.metrics().render_prometheus();
            assert!(prom.contains("msj_request_cancelled_total 1"));
        }
    }
}

/// A plan fires at most once per engine even when runs overlap: two
/// joins released together both arm the plan before either returns, and
/// only the one that swaps the engine's latch first stalls.
#[test]
fn overlapping_runs_fire_the_plan_once_per_engine() {
    let a = msj::datagen::small_carto(60, 24.0, 9011);
    let b = msj::datagen::small_carto(60, 24.0, 9012);
    // A seed that targets the first batch, so every run reaches it.
    let stall = (0..)
        .map(|seed| FaultConfig::seeded(seed, FaultKind::SlowWorker { millis: 600 }))
        .find(|&plan| FaultSession::new(plan).target_batch() == 0)
        .expect("some seed targets the first batch");
    let (engine, request) = engine_for(
        config(Backend::RStarTraversal, Execution::Serial, stall),
        &a,
        &b,
    );
    let start = Barrier::new(2);
    let run = || {
        start.wait();
        join_pairs(
            engine
                .submit(request)
                .expect("a straggler is not a failure"),
        )
    };
    let [first, second] =
        std::thread::scope(|s| [s.spawn(run), s.spawn(run)].map(|h| h.join().expect("run thread")));
    assert_eq!(first, second);
    assert_eq!(join_pairs(engine.submit(request).unwrap()), first);
    let fired = engine
        .metrics()
        .snapshot()
        .counter("msj_fault_injected_total{site=\"slow_worker\"}");
    assert_eq!(fired, 1, "the plan fired in more than one run");
}

#[test]
fn deadline_stops_promptly_and_leaves_the_engine_clean() {
    use std::time::Duration;
    let a = msj::datagen::small_carto(160, 24.0, 9003);
    let b = msj::datagen::small_carto(160, 24.0, 9004);
    for (backend, execution) in matrix() {
        let (engine, request) =
            engine_for(config(backend, execution, FaultConfig::disabled()), &a, &b);
        let baseline = join_pairs(engine.submit(request).unwrap());
        let token = CancelToken::with_deadline(Duration::ZERO);
        match engine.submit_with_cancel(request, &token) {
            Err(EngineError::DeadlineExceeded { .. }) => {}
            other => panic!("{backend:?}/{execution:?}: expected DeadlineExceeded, got {other:?}"),
        }
        let after = join_pairs(engine.submit(request).unwrap());
        assert_eq!(after, baseline, "{backend:?}/{execution:?}");
    }
}

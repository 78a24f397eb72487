//! Robustness: the engine's failure story, end to end.
//!
//! Walks every hardened path on one resident `SpatialEngine`:
//!
//! * a join submitted with a **deadline** (cooperative cancellation at
//!   batch boundaries) comes back as `DeadlineExceeded` with the elapsed
//!   time and the partial candidate count;
//! * an **explicit cancellation** from another thread stops an in-flight
//!   join with `Cancelled`;
//! * a deterministically **injected worker panic** (a seed-driven
//!   `msj-fault` plan, armed in code on the engine's `EngineConfig`) is
//!   contained to `WorkerPanicked` — and the *same* engine then serves
//!   the identical request, byte-identically: a plan fires at most once
//!   per engine;
//! * the closing Prometheus exposition carries every failure counter.
//!
//! ```text
//! cargo run --release --example robustness
//! ```

use msj::core::{
    CancelToken, EngineConfig, EngineError, FaultConfig, FaultKind, JoinConfig, Request, Response,
    SpatialEngine,
};
use std::time::Duration;

fn pairs(engine: &SpatialEngine, request: Request) -> Vec<(u32, u32)> {
    match engine.submit(request) {
        Ok(Response::Join(join)) => join.pairs,
        other => panic!("expected a join response, got {other:?}"),
    }
}

fn main() {
    // Small batches so the seed-targeted fault plans land early; the
    // plan is a setting of the engine, not of the join.
    let faulty = EngineConfig {
        fault: FaultConfig::seeded(42, FaultKind::WorkerPanic),
        ..JoinConfig::builder().batch_pairs(64).build().into()
    };
    let engine = SpatialEngine::new(faulty);
    let a = engine.register(msj::datagen::small_carto(400, 32.0, 5));
    let b = engine.register(msj::datagen::small_carto(400, 32.0, 6));
    let request = Request::Join {
        a: a.id(),
        b: b.id(),
        execution: None,
    };

    // 1. Injected worker panic: contained, reported, not sticky.
    match engine.submit(request) {
        Err(EngineError::WorkerPanicked { worker, message }) => {
            println!("worker panic contained: worker {worker}: {message}");
        }
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
    let recovered = pairs(&engine, request);
    println!(
        "same engine, same request, clean answer: {} pairs\n",
        recovered.len()
    );

    // 2. Deadline: an impossible budget trips cooperatively at the first
    // batch boundary.
    let token = CancelToken::with_deadline(Duration::ZERO);
    match engine.submit_with_cancel(request, &token) {
        Err(EngineError::DeadlineExceeded {
            elapsed,
            partial_candidates,
        }) => println!(
            "deadline exceeded after {elapsed:?} with {partial_candidates} partial candidates"
        ),
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }

    // 3. Explicit cancellation: cancel before submitting (a second
    // thread holding a clone of the token works the same way).
    let token = CancelToken::new();
    token.cancel();
    match engine.submit_with_cancel(request, &token) {
        Err(EngineError::Cancelled { .. }) => println!("explicit cancellation honoured\n"),
        other => panic!("expected Cancelled, got {other:?}"),
    }

    // 4. Everything above is on the scrape.
    println!("\n=== Prometheus exposition (failure families) ===");
    for line in engine.metrics().render_prometheus().lines().filter(|l| {
        [
            "msj_worker_panics_total",
            "msj_deadline_exceeded_total",
            "msj_request_cancelled_total",
            "msj_request_errors_total",
            "msj_fault_injected_total",
        ]
        .iter()
        .any(|f| l.contains(f))
    }) {
        println!("{line}");
    }
}

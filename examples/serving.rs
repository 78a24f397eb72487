//! Serving: a resident `SpatialEngine` under mixed query traffic.
//!
//! Registers two map layers once (Step 0 — trees, approximation stores,
//! TR* representations — owned by the engine behind `Arc`), then:
//!
//! * serves a batch of mixed requests (join + point + window) through
//!   the unified `Request`/`Response` surface;
//! * shares the owned `PreparedJoin` across worker threads via `Arc`;
//! * demonstrates §5 cost-model admission control refusing a join whose
//!   modeled cost exceeds the configured budget;
//! * dumps what the engine observed about all of the above: the
//!   Prometheus-style exposition, the schema-versioned JSON snapshot
//!   and the most recent request trace.
//!
//! ```text
//! cargo run --release --example serving
//! ```

use msj::core::{EngineConfig, Execution, JoinConfig, ObsConfig, Request, Response, SpatialEngine};
use msj::geom::{Point, Rect};
use std::sync::Arc;

fn main() {
    // The builder is the way to assemble a non-preset join plan (fused
    // execution across 4 workers); the engine around it keeps metrics
    // plus a ring of the 16 most recent request traces.
    let plan = JoinConfig::builder()
        .execution(Execution::Fused { threads: 4 })
        .build();
    let config = EngineConfig {
        obs: ObsConfig::with_traces(16),
        ..plan.into()
    };

    let engine = Arc::new(SpatialEngine::new(config));
    let forests = engine.register(msj::datagen::small_carto(300, 40.0, 7));
    let cities = engine.register(msj::datagen::small_carto(300, 40.0, 8));
    println!(
        "registered {} datasets ({} + {} objects); step 0 paid once: {:.1} ms + {:.1} ms",
        engine.num_datasets(),
        forests.len(),
        cities.len(),
        forests.step0_nanos() as f64 / 1e6,
        cities.step0_nanos() as f64 / 1e6,
    );

    // --- Batched mixed traffic through the unified surface ---
    let world = forests.relation().bounding_rect().unwrap();
    let center = Point::new(
        world.xmin() + world.width() * 0.5,
        world.ymin() + world.height() * 0.5,
    );
    let responses = engine.submit_batch([
        Request::Join {
            a: forests.id(),
            b: cities.id(),
            execution: None,
        },
        Request::Point {
            dataset: forests.id(),
            point: center,
        },
        Request::Window {
            dataset: cities.id(),
            window: Rect::from_bounds(
                center.x,
                center.y,
                center.x + world.width() * 0.05,
                center.y + world.height() * 0.05,
            ),
        },
    ]);
    for (i, response) in responses.iter().enumerate() {
        match response {
            Ok(Response::Join(join)) => println!(
                "request {i}: join -> {} pairs; modeled {:.3}s (yield observed {:.0}%)",
                join.pairs.len(),
                join.admission.cost.total_s(),
                100.0 * join.admission.cost.filter_yield_observed,
            ),
            Ok(Response::Selection(sel)) => println!(
                "request {i}: selection -> {} objects ({} candidates, {} exact tests)",
                sel.ids.len(),
                sel.stats.candidates,
                sel.stats.exact_tests,
            ),
            Err(e) => println!("request {i}: refused ({e})"),
        }
    }

    // --- The owned PreparedJoin shared across threads ---
    let prepared = engine.prepare_join(&forests, &cities);
    let reference = prepared.run().pairs;
    let worker_counts: Vec<usize> = std::thread::scope(|scope| {
        // Spawn all workers before joining any, so the runs overlap.
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let shared = Arc::clone(&prepared);
                scope.spawn(move || shared.run().pairs.len())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    println!(
        "\nprepared join shared across 4 threads: {} pairs from every worker (reference {})",
        worker_counts[0],
        reference.len(),
    );
    assert!(worker_counts.iter().all(|&n| n == reference.len()));

    // --- Admission control ---
    let strict = SpatialEngine::new(config).with_admission_limit(1e-9);
    let (fa, fb) = (
        strict.register(forests.relation().clone()),
        strict.register(cities.relation().clone()),
    );
    match strict.submit(Request::Join {
        a: fa.id(),
        b: fb.id(),
        execution: None,
    }) {
        Err(e) => println!("strict engine: {e}"),
        Ok(_) => unreachable!("a 1ns budget admits nothing"),
    }
    println!(
        "strict engine shed {} of {} join submissions",
        strict
            .metrics()
            .snapshot()
            .counter("msj_admission_shed_total"),
        1,
    );

    // --- Observability: what the engine saw while doing all of that ---
    // Everything above was recorded as it ran — per-kind latency
    // histograms, per-step time, admission and cache counters, worker
    // lanes — at a cost low enough to leave on in production.
    println!("\n=== Prometheus exposition (scrape of the serving engine) ===");
    print!("{}", engine.metrics().render_prometheus());

    println!("=== JSON snapshot (schema-versioned, diffable) ===");
    println!("{}", engine.metrics().snapshot_json());

    let traces = engine.recent_traces();
    let last = traces.last().expect("tracing is on and traffic was served");
    println!("=== most recent of {} retained traces ===", traces.len());
    println!(
        "seq {} kind {} datasets ({}, {}) admitted {} estimated {:.4}s \
         latency {:.3} ms candidates {} results {}",
        last.seq,
        last.kind,
        last.datasets.0,
        last.datasets.1,
        last.admitted,
        last.estimated_s,
        last.latency_nanos as f64 / 1e6,
        last.candidates,
        last.results,
    );
    println!(
        "  steps: step0 {:.3} ms | step1 {:.3} ms | step2a {:.3} ms | \
         step2 {:.3} ms | step3 {:.3} ms",
        last.steps.step0_nanos as f64 / 1e6,
        last.steps.step1_nanos as f64 / 1e6,
        last.steps.step2a_nanos as f64 / 1e6,
        last.steps.step2_nanos as f64 / 1e6,
        last.steps.step3_nanos as f64 / 1e6,
    );
}

//! Observability may only *watch* the join — never change it. This
//! suite pins the PR-6 acceptance criterion: response sets with metrics
//! and tracing enabled must be byte-identical to
//! [`ObsConfig::disabled`] across {backend × execution × threads}, for
//! one-shot joins and for the resident engine's whole request surface,
//! while the enabled side actually records what it watched.

use msj::core::{
    Backend, Execution, JoinConfig, MultiStepJoin, ObsConfig, Request, Response, SpatialEngine,
    StoreConfig,
};
use msj::geom::{Point, Rect};
use std::sync::Arc;

fn workload(seed: u64) -> (msj::geom::Relation, msj::geom::Relation) {
    (
        msj::datagen::small_carto(48, 24.0, seed),
        msj::datagen::small_carto(48, 24.0, seed + 1),
    )
}

/// One-shot joins: every backend × execution cell produces the same
/// bytes (pairs, in order, plus the deterministic operation counts)
/// whether observability is fully on (metrics + traces) or fully off.
#[test]
fn tracing_on_and_off_are_byte_identical_across_the_matrix() {
    let (a, b) = workload(8101);
    let backends = [
        Backend::RStarTraversal,
        Backend::PartitionedSweep {
            tiles_per_axis: 4,
            threads: 2,
        },
    ];
    let executions = [
        Execution::Serial,
        Execution::Fused { threads: 1 },
        Execution::Fused { threads: 4 },
    ];
    for backend in backends {
        for execution in executions {
            let run = |obs: ObsConfig| {
                let config = JoinConfig::builder()
                    .backend(backend)
                    .execution(execution)
                    .obs(obs)
                    .build();
                MultiStepJoin::new(config).execute(&a, &b)
            };
            let on = run(ObsConfig::with_traces(8));
            let off = run(ObsConfig::disabled());
            let label = format!("{backend:?}/{execution:?}");
            // Byte-identical: same pairs in the same order — not merely
            // the same set.
            assert_eq!(on.pairs, off.pairs, "{label}: response sets diverged");
            assert_eq!(
                on.stats.exact_ops, off.stats.exact_ops,
                "{label}: exact-geometry work diverged"
            );
            assert_eq!(
                on.stats.mbr_join.candidates, off.stats.mbr_join.candidates,
                "{label}: candidate streams diverged"
            );
            // The watched side watched; the dark side stayed dark.
            assert!(!on.worker_lanes.is_empty(), "{label}: no lanes recorded");
            assert!(
                off.worker_lanes.is_empty(),
                "{label}: disabled obs left lanes"
            );
            assert_eq!(off.stats.step2_nanos + off.stats.step3_nanos, 0, "{label}");
        }
    }
}

/// The resident engine: the full request surface (join, self-join,
/// point, window) answers identically on a traced engine and a dark
/// one, and only the traced engine accumulates metrics and traces.
#[test]
fn engine_request_surface_agrees_with_observability_off() {
    let (a, b) = workload(8201);
    let world = a.bounding_rect().unwrap();
    let a = Arc::new(a);
    let b = Arc::new(b);
    let p = Point::new(
        world.xmin() + world.width() * 0.45,
        world.ymin() + world.height() * 0.55,
    );
    let w = Rect::from_bounds(
        p.x,
        p.y,
        p.x + world.width() * 0.15,
        p.y + world.height() * 0.15,
    );

    let serve = |obs: ObsConfig| {
        let engine = SpatialEngine::new(JoinConfig::builder().obs(obs).build());
        let (ha, hb) = (engine.register(a.clone()), engine.register(b.clone()));
        let responses = engine.submit_batch([
            Request::Join {
                a: ha.id(),
                b: hb.id(),
                execution: Some(Execution::Fused { threads: 4 }),
            },
            Request::SelfJoin {
                dataset: ha.id(),
                execution: None,
            },
            Request::Point {
                dataset: ha.id(),
                point: p,
            },
            Request::Window {
                dataset: ha.id(),
                window: w,
            },
        ]);
        (engine, responses)
    };
    let (traced, on) = serve(ObsConfig::with_traces(16));
    let (dark, off) = serve(ObsConfig::disabled());
    assert_eq!(on.len(), off.len());
    for (i, (x, y)) in on.iter().zip(off.iter()).enumerate() {
        match (x.as_ref().unwrap(), y.as_ref().unwrap()) {
            (Response::Join(jx), Response::Join(jy)) => {
                assert_eq!(jx.pairs, jy.pairs, "request {i}: join pairs diverged");
            }
            (Response::Selection(sx), Response::Selection(sy)) => {
                assert_eq!(sx.ids, sy.ids, "request {i}: selection ids diverged");
            }
            other => panic!("request {i}: response shapes diverged: {other:?}"),
        }
    }
    // Four requests → four traces and four latency observations.
    assert_eq!(traced.recent_traces().len(), 4);
    let snap = traced.metrics().snapshot();
    let served: u64 = ["join", "self_join", "point", "window"]
        .iter()
        .filter_map(|kind| snap.histogram(&format!("msj_request_latency_nanos{{kind=\"{kind}\"}}")))
        .map(|h| h.count)
        .sum();
    assert_eq!(served, 4);
    assert!(dark.recent_traces().is_empty());
    assert_eq!(
        dark.metrics()
            .snapshot()
            .counter("msj_admission_accept_total"),
        0
    );
}

/// A register's time is itemised: every artifact the configuration
/// builds reports its share, the shares fit inside the registration
/// they were measured in (plus the write-through, which runs after
/// it), and the family reaches both exporters — the Prometheus text is
/// what the wire `Metrics` request serves.
#[test]
fn registration_time_is_itemised_by_artifact() {
    let artifact = |name: &str| format!("msj_step0_artifact_nanos_total{{artifact=\"{name}\"}}");
    let built = ["tree", "conservative", "progressive", "trstar"];
    let (a, b) = workload(8301);

    let dir = std::env::temp_dir().join(format!("msj-obs-agreement-{}", std::process::id()));
    let engine = SpatialEngine::new(JoinConfig::default())
        .with_store(StoreConfig::new(&dir))
        .expect("arm store");
    engine.register(a.clone());
    engine.register(b.clone());
    let snap = engine.metrics().snapshot();
    std::fs::remove_dir_all(&dir).ok();

    for name in built.iter().chain(&["persist"]) {
        assert!(snap.counter(&artifact(name)) > 0, "{name} not timed");
    }
    let registration = snap
        .histogram("msj_registration_nanos")
        .expect("registration histogram");
    assert_eq!(registration.count, 2);
    let built_nanos: u64 = built.iter().map(|name| snap.counter(&artifact(name))).sum();
    assert!(
        built_nanos <= registration.sum,
        "artifacts {built_nanos} ns exceed the registrations' {} ns",
        registration.sum
    );
    let prom = engine.metrics().render_prometheus();
    let json = snap.to_json();
    for name in built.iter().chain(&["persist"]) {
        assert!(
            prom.contains(&artifact(name)),
            "{name} missing from Prometheus text"
        );
        assert!(
            json.contains(&format!("artifact=\\\"{name}\\\"")),
            "{name} missing from JSON"
        );
    }

    // No store armed: nothing persists; observability off: nothing is
    // timed at all.
    let memory_only = SpatialEngine::new(JoinConfig::default());
    memory_only.register(a.clone());
    let snap = memory_only.metrics().snapshot();
    assert!(snap.counter(&artifact("progressive")) > 0);
    assert_eq!(snap.counter(&artifact("persist")), 0);
    let dark = SpatialEngine::new(JoinConfig::builder().obs(ObsConfig::disabled()).build());
    dark.register(a);
    assert_eq!(
        dark.metrics().snapshot().counter(&artifact("progressive")),
        0
    );
}

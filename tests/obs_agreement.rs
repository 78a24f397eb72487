//! Observability may only *watch* the join — never change it. This
//! suite pins the PR-6 acceptance criterion: response sets with metrics
//! and tracing enabled must be byte-identical to
//! [`ObsConfig::disabled`] across {backend × execution × threads}, for
//! prepared joins and for the resident engine's whole request surface,
//! while the enabled side actually records what it watched.

use msj::core::{
    Backend, EngineConfig, Execution, JoinConfig, ObsConfig, Request, Response, SpatialEngine,
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

/// Prepared joins: every backend × execution cell produces the same
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
                    .build();
                let engine = SpatialEngine::new(EngineConfig {
                    obs,
                    ..config.into()
                });
                let (ha, hb) = (engine.register(a.clone()), engine.register(b.clone()));
                engine.prepare_join(&ha, &hb).run()
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
        let engine = SpatialEngine::new(EngineConfig {
            obs,
            ..EngineConfig::default()
        });
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
    let built = ["tree", "trstar"];
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
    assert!(snap.counter(&artifact("tree")) > 0);
    assert_eq!(snap.counter(&artifact("persist")), 0);
    let dark = SpatialEngine::new(EngineConfig {
        obs: ObsConfig::disabled(),
        ..EngineConfig::default()
    });
    dark.register(a);
    assert_eq!(dark.metrics().snapshot().counter(&artifact("tree")), 0);
}

/// One exposition line per instrument, values normalised to what is
/// deterministic: counts stay exact, wall-clock / byte / ratio values
/// collapse to `0` or `+`, and the CPU-dependent dispatch marker to `*`.
/// A histogram is its `_count` line (the quantile / `_sum` / `_max`
/// samples are the registry's rendering, not the engine's schema).
fn exposition_keys(prom: &str) -> Vec<String> {
    let rendering_detail = |line: &str| {
        let family = line.split(['{', ' ']).next().unwrap_or(line);
        line.contains("quantile=\"") || family.ends_with("_sum") || family.ends_with("_max")
    };
    let mut keys: Vec<String> = prom
        .lines()
        .filter(|line| !line.starts_with("# HELP") && !rendering_detail(line))
        .map(|line| {
            if line.starts_with('#') {
                return line.to_string();
            }
            let (key, value) = line.rsplit_once(' ').expect("sample line");
            let measured = ["nanos", "msj_store_bytes", "msj_admission_error_ratio"];
            let value = if key.starts_with("msj_kernel_dispatch") {
                "*"
            } else if measured.iter().any(|m| key.contains(m))
                && !key.contains("_count")
                && value != "0"
            {
                "+"
            } else {
                value
            };
            format!("{key} {value}")
        })
        .collect();
    keys.sort();
    keys
}

/// The golden list with `changes` applied: a key already present takes
/// the new value (or goes, for `-`), a new key is inserted in order.
fn with_changes(base: &[String], changes: &[(&str, &str)]) -> Vec<String> {
    let mut keys: Vec<String> = base
        .iter()
        .filter(|line| {
            let key = line.rsplit_once(' ').expect("sample line").0;
            !changes.iter().any(|(changed, _)| *changed == key)
        })
        .cloned()
        .collect();
    let present = changes.iter().filter(|(_, value)| *value != "-");
    keys.extend(present.map(|(key, value)| format!("{key} {value}")));
    keys.sort();
    keys
}

/// The engine's metric schema is an interface: the wire `Metrics`
/// request serves it and dashboards parse it by name. Pinned here as the
/// sorted list of family + label keys — for a fresh engine, after one
/// request of every kind plus a shed, a cancelled join and a
/// store-backed reopen, and for a dark engine under the same traffic —
/// so no instrument can be renamed, dropped or counted twice unnoticed.
#[test]
fn exposition_schema_and_counts_are_pinned() {
    let (a, b) = workload(8401);
    let world = a.bounding_rect().unwrap();
    let (a, b) = (Arc::new(a), Arc::new(b));
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
    let traffic = |engine: &SpatialEngine| {
        let (ha, hb) = (engine.register(a.clone()), engine.register(b.clone()));
        let join = Request::Join {
            a: ha.id(),
            b: hb.id(),
            execution: None,
        };
        let served = engine.submit_batch([
            join,
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
        assert!(served.iter().all(Result::is_ok));
        engine.set_admission_limit(Some(0.0));
        assert!(engine.submit(join).is_err(), "zero budget sheds");
        engine.set_admission_limit(None);
        let token = msj::core::CancelToken::new();
        token.cancel();
        assert!(engine.submit_with_cancel(join, &token).is_err());
        join
    };

    // (i) A fresh engine renders the whole schema at zero.
    let fresh: Vec<String> = FRESH_SCHEMA.lines().map(str::to_string).collect();
    let engine = SpatialEngine::new(JoinConfig::default());
    assert_eq!(
        exposition_keys(&engine.metrics().render_prometheus()),
        fresh
    );

    // (ii) One of everything, on a store-backed engine, then a reopen.
    let dir = std::env::temp_dir().join(format!("msj-obs-schema-{}", std::process::id()));
    let engine = SpatialEngine::new(JoinConfig::default())
        .with_store(StoreConfig::new(&dir))
        .expect("arm store");
    let join = traffic(&engine);
    let after = exposition_keys(&engine.metrics().render_prometheus());
    drop(engine);
    let reopened = SpatialEngine::open(JoinConfig::default(), StoreConfig::new(&dir));
    let reopened = reopened.expect("reopen");
    assert!(reopened.submit(join).is_ok());
    let cold = exposition_keys(&reopened.metrics().render_prometheus());
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(after, with_changes(&fresh, AFTER_TRAFFIC));
    assert_eq!(cold, with_changes(&fresh, AFTER_REOPEN));

    // (iii) A dark engine under the same traffic keeps the schema and
    // records nothing — not even the dispatch marker.
    let dark = SpatialEngine::new(EngineConfig {
        obs: ObsConfig::disabled(),
        ..EngineConfig::default()
    });
    traffic(&dark);
    let prom = dark.metrics().render_prometheus();
    assert_eq!(exposition_keys(&prom), fresh);
    for line in prom.lines().filter(|line| !line.starts_with('#')) {
        assert!(line.ends_with(" 0"), "dark engine recorded: {line}");
    }
}

const FRESH_SCHEMA: &str = "\
# TYPE msj_admission_accept_total counter\n\
# TYPE msj_admission_error_ratio gauge\n\
# TYPE msj_admission_shed_total counter\n\
# TYPE msj_datasets_registered_total counter\n\
# TYPE msj_deadline_exceeded_total counter\n\
# TYPE msj_fault_injected_total counter\n\
# TYPE msj_kernel_dispatch gauge\n\
# TYPE msj_prepared_cache_evictions_total counter\n\
# TYPE msj_prepared_cache_hits_total counter\n\
# TYPE msj_prepared_cache_misses_total counter\n\
# TYPE msj_registration_nanos summary\n\
# TYPE msj_request_cancelled_total counter\n\
# TYPE msj_request_errors_total counter\n\
# TYPE msj_request_latency_nanos summary\n\
# TYPE msj_step0_artifact_nanos_total counter\n\
# TYPE msj_step_nanos_total counter\n\
# TYPE msj_store_bytes counter\n\
# TYPE msj_store_checksum_failures_total counter\n\
# TYPE msj_store_evictions_total counter\n\
# TYPE msj_store_load_nanos summary\n\
# TYPE msj_worker_batches_total counter\n\
# TYPE msj_worker_pairs_total counter\n\
# TYPE msj_worker_panics_total counter\n\
msj_admission_accept_total 0\n\
msj_admission_error_ratio 0\n\
msj_admission_shed_total 0\n\
msj_datasets_registered_total 0\n\
msj_deadline_exceeded_total 0\n\
msj_fault_injected_total{site=\"cancel_at_batch\"} 0\n\
msj_fault_injected_total{site=\"conn_reset\"} 0\n\
msj_fault_injected_total{site=\"drop_before_reply\"} 0\n\
msj_fault_injected_total{site=\"partial_write\"} 0\n\
msj_fault_injected_total{site=\"slow_client\"} 0\n\
msj_fault_injected_total{site=\"slow_worker\"} 0\n\
msj_fault_injected_total{site=\"store_corrupt\"} 0\n\
msj_fault_injected_total{site=\"worker_panic\"} 0\n\
msj_kernel_dispatch{path=\"avx2\"} *\n\
msj_kernel_dispatch{path=\"scalar\"} *\n\
msj_kernel_dispatch{path=\"sse2\"} *\n\
msj_prepared_cache_evictions_total 0\n\
msj_prepared_cache_hits_total 0\n\
msj_prepared_cache_misses_total 0\n\
msj_registration_nanos_count 0\n\
msj_request_cancelled_total 0\n\
msj_request_errors_total{kind=\"admission_denied\"} 0\n\
msj_request_errors_total{kind=\"cancelled\"} 0\n\
msj_request_errors_total{kind=\"deadline_exceeded\"} 0\n\
msj_request_errors_total{kind=\"unknown_dataset\"} 0\n\
msj_request_errors_total{kind=\"worker_panicked\"} 0\n\
msj_request_latency_nanos_count{kind=\"join\"} 0\n\
msj_request_latency_nanos_count{kind=\"point\"} 0\n\
msj_request_latency_nanos_count{kind=\"self_join\"} 0\n\
msj_request_latency_nanos_count{kind=\"window\"} 0\n\
msj_step0_artifact_nanos_total{artifact=\"persist\"} 0\n\
msj_step0_artifact_nanos_total{artifact=\"relation\"} 0\n\
msj_step0_artifact_nanos_total{artifact=\"tree\"} 0\n\
msj_step0_artifact_nanos_total{artifact=\"trstar\"} 0\n\
msj_step_nanos_total{step=\"step0\"} 0\n\
msj_step_nanos_total{step=\"step1\"} 0\n\
msj_step_nanos_total{step=\"step2\"} 0\n\
msj_step_nanos_total{step=\"step2a\"} 0\n\
msj_step_nanos_total{step=\"step3\"} 0\n\
msj_store_bytes 0\n\
msj_store_checksum_failures_total{section=\"raster_a\"} 0\n\
msj_store_checksum_failures_total{section=\"raster_b\"} 0\n\
msj_store_checksum_failures_total{section=\"relation\"} 0\n\
msj_store_checksum_failures_total{section=\"tree\"} 0\n\
msj_store_checksum_failures_total{section=\"trstar\"} 0\n\
msj_store_evictions_total 0\n\
msj_store_load_nanos_count 0\n\
msj_worker_batches_total{role=\"backend\"} 0\n\
msj_worker_batches_total{role=\"consumer\"} 0\n\
msj_worker_pairs_total{role=\"backend\"} 0\n\
msj_worker_pairs_total{role=\"consumer\"} 0\n\
msj_worker_panics_total 0\n\
";

const AFTER_TRAFFIC: &[(&str, &str)] = &[
    ("# TYPE msj_store_bytes", "gauge"),
    ("msj_admission_accept_total", "2"),
    ("msj_admission_error_ratio", "+"),
    ("msj_admission_shed_total", "1"),
    ("msj_datasets_registered_total", "2"),
    ("msj_prepared_cache_misses_total", "2"),
    ("msj_registration_nanos_count", "2"),
    ("msj_request_cancelled_total", "1"),
    ("msj_request_errors_total{kind=\"admission_denied\"}", "1"),
    ("msj_request_errors_total{kind=\"cancelled\"}", "1"),
    ("msj_request_latency_nanos_count{kind=\"join\"}", "1"),
    ("msj_request_latency_nanos_count{kind=\"point\"}", "1"),
    ("msj_request_latency_nanos_count{kind=\"self_join\"}", "1"),
    ("msj_request_latency_nanos_count{kind=\"window\"}", "1"),
    ("msj_step0_artifact_nanos_total{artifact=\"persist\"}", "+"),
    ("msj_step0_artifact_nanos_total{artifact=\"tree\"}", "+"),
    ("msj_step0_artifact_nanos_total{artifact=\"trstar\"}", "+"),
    ("msj_step_nanos_total{step=\"step0\"}", "+"),
    ("msj_step_nanos_total{step=\"step1\"}", "+"),
    ("msj_step_nanos_total{step=\"step2\"}", "+"),
    ("msj_step_nanos_total{step=\"step2a\"}", "+"),
    ("msj_step_nanos_total{step=\"step3\"}", "+"),
    ("msj_store_bytes{dataset=\"0\"}", "+"),
    ("msj_store_bytes{dataset=\"1\"}", "+"),
    ("msj_worker_batches_total{role=\"backend\"}", "2"),
    ("msj_worker_batches_total{role=\"consumer\"}", "2"),
    ("msj_worker_pairs_total{role=\"backend\"}", "697"),
    ("msj_worker_pairs_total{role=\"consumer\"}", "697"),
    // The described-but-empty placeholder gives way to real samples.
    ("msj_store_bytes", "-"),
];

const AFTER_REOPEN: &[(&str, &str)] = &[
    ("# TYPE msj_store_bytes", "gauge"),
    ("msj_admission_accept_total", "1"),
    ("msj_admission_error_ratio", "+"),
    ("msj_prepared_cache_misses_total", "1"),
    ("msj_request_latency_nanos_count{kind=\"join\"}", "1"),
    ("msj_step_nanos_total{step=\"step1\"}", "+"),
    ("msj_step_nanos_total{step=\"step2\"}", "+"),
    ("msj_step_nanos_total{step=\"step2a\"}", "+"),
    ("msj_step_nanos_total{step=\"step3\"}", "+"),
    ("msj_store_bytes{dataset=\"0\"}", "+"),
    ("msj_store_bytes{dataset=\"1\"}", "+"),
    ("msj_store_load_nanos_count", "2"),
    ("msj_worker_batches_total{role=\"backend\"}", "1"),
    ("msj_worker_batches_total{role=\"consumer\"}", "1"),
    ("msj_worker_pairs_total{role=\"backend\"}", "333"),
    ("msj_worker_pairs_total{role=\"consumer\"}", "333"),
    // The described-but-empty placeholder gives way to real samples.
    ("msj_store_bytes", "-"),
];

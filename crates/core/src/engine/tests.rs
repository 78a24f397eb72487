//! Unit tests of the resident engine.

use super::*;
use crate::config::JoinConfig;
use crate::cost::{figure18_cost, ExactCostKind};
use crate::execution::Execution;
use crate::pipeline::MultiStepJoin;
use msj_exact::OpCounts;
use msj_fault::FaultConfig;
use msj_geom::{ObjectId, Point, Rect};
use msj_obs::ObsConfig;
use std::time::Duration;

/// One selection through the request surface.
fn select(engine: &SpatialEngine, request: Request) -> SelectionResponse {
    match engine.submit(request) {
        Ok(Response::Selection(response)) => response,
        other => panic!("expected a selection response, got {other:?}"),
    }
}

const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SpatialEngine>();
    assert_send_sync::<PreparedJoin>();
    assert_send_sync::<DatasetHandle>();
};

fn sorted(mut v: Vec<(u32, u32)>) -> Vec<(u32, u32)> {
    v.sort_unstable();
    v
}

#[test]
fn engine_join_matches_one_shot_pipeline() {
    let a = msj_datagen::small_carto(40, 24.0, 1001);
    let b = msj_datagen::small_carto(40, 24.0, 1002);
    let expect = MultiStepJoin::new(JoinConfig::default()).execute(&a, &b);
    let engine = SpatialEngine::new(JoinConfig::default());
    let (ha, hb) = (engine.register(a), engine.register(b));
    assert_eq!((ha.id(), hb.id()), (0, 1));
    let prepared = engine.prepare_join(&ha, &hb);
    let got = prepared.run();
    assert_eq!(got.pairs, expect.pairs);
    assert_eq!(got.stats.exact_ops, expect.stats.exact_ops);
    assert_eq!(
        got.stats.mbr_join.candidates,
        expect.stats.mbr_join.candidates
    );
    // The cache serves the same prepared join again.
    assert!(Arc::ptr_eq(&prepared, &engine.prepare_join(&ha, &hb)));
}

#[test]
fn a_self_join_rasterizes_its_relation_once() {
    let rel = msj_datagen::small_carto(60, 24.0, 1004);
    // The one-shot pipeline copies and prepares a self-join's relation
    // once, like the engine: one raster store on both sides.
    let one_shot = PreparedJoin::one_shot(&JoinConfig::default(), &rel, &rel);
    let (ra, rb) = one_shot.filter.raster_stores().expect("raster stage");
    assert!(std::ptr::eq(ra, rb), "the one-shot join holds one store");
    let expect = one_shot.run();
    assert_eq!(
        expect.pairs,
        MultiStepJoin::new(JoinConfig::default())
            .execute(&rel, &rel)
            .pairs
    );
    let engine = SpatialEngine::new(JoinConfig::default());
    let h = engine.register(rel);
    let prepared = engine.prepare_join(&h, &h);
    let (ra, rb) = prepared.filter.raster_stores().expect("raster stage");
    assert!(std::ptr::eq(ra, rb), "one store serves both sides");
    let got = prepared.run();
    assert_eq!(got.pairs, expect.pairs);
    assert_eq!(got.stats.raster_hits, expect.stats.raster_hits);
    assert_eq!(got.stats.raster_drops, expect.stats.raster_drops);
    assert!(got.stats.raster_hits + got.stats.raster_drops > 0);
}

#[test]
fn a_reopened_self_join_adopts_its_pair_raster_once() {
    use msj_store::{Section, Store};
    let rel = msj_datagen::small_carto(60, 24.0, 1005);
    let dir = std::env::temp_dir().join(format!("msj-engine-self-join-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let engine = SpatialEngine::new(JoinConfig::default())
            .with_store(StoreConfig::new(&dir))
            .expect("arm store");
        let h = engine.register(rel.clone());
        engine.prepare_join(&h, &h).run();
    }
    let store = Store::open(&dir).expect("store");
    let pair = store
        .read_pair(0, 0, None)
        .expect("read")
        .expect("pair persisted");
    let raster = pair.section(Section::RasterA).expect("RasterA written");
    let raster = raster.expect("RasterA verifies").to_vec();
    assert!(
        pair.section(Section::RasterB).is_none(),
        "one raster stored"
    );
    let fresh = SpatialEngine::new(JoinConfig::default());
    let h = fresh.register(rel);
    let expect = fresh.prepare_join(&h, &h).run();

    // Adopted once, not rebuilt and rewritten, with no section refused —
    // from this build's pair file, then from one holding both sides, as
    // an older build wrote it.
    let pair_file = dir.join("pair_0_0.msj");
    let inode = |path: &std::path::Path| {
        std::os::unix::fs::MetadataExt::ino(&std::fs::metadata(path).expect("pair persisted"))
    };
    let both = [
        (Section::RasterA, raster.clone()),
        (Section::RasterB, raster),
    ];
    for sections in [None, Some(both)] {
        if let Some(sections) = sections {
            store
                .write_pair(0, 0, pair.config_tag, &sections)
                .expect("rewrite pair");
        }
        let written = inode(&pair_file);
        let opened =
            SpatialEngine::open(JoinConfig::default(), StoreConfig::new(&dir)).expect("open");
        let h = opened.dataset(0).expect("dataset 0");
        let prepared = opened.prepare_join(&h, &h);
        let (ra, rb) = prepared.filter.raster_stores().expect("raster stage");
        assert!(std::ptr::eq(ra, rb), "one adopted store serves both sides");
        assert_eq!(inode(&pair_file), written, "adopted, not rebuilt");
        let snap = opened.metrics().snapshot();
        for section in Section::ALL {
            let key = format!(
                "msj_store_checksum_failures_total{{section=\"{}\"}}",
                section.name()
            );
            assert_eq!(snap.counters.get(&key), Some(&0), "{key}");
        }
        let got = prepared.run();
        assert_eq!(got.pairs, expect.pairs);
        assert_eq!(got.stats.raster_hits, expect.stats.raster_hits);
        assert_eq!(got.stats.raster_drops, expect.stats.raster_drops);
    }
    drop(pair);
    std::fs::remove_dir_all(&dir).ok();
}

/// The engine's Step 2 is the raster stage alone: a plan with any of
/// §5's approximation stages belongs to `MultiStepJoin`.
fn refused(edit: impl FnOnce(crate::JoinConfigBuilder) -> crate::JoinConfigBuilder) {
    SpatialEngine::new(edit(JoinConfig::builder()).build());
}

#[test]
#[should_panic(expected = "MultiStepJoin")]
fn the_engine_refuses_a_conservative_approximation() {
    refused(|plan| plan.conservative(msj_approx::ConservativeKind::FiveCorner));
}

#[test]
#[should_panic(expected = "MultiStepJoin")]
fn the_engine_refuses_a_progressive_approximation() {
    refused(|plan| plan.progressive(msj_approx::ProgressiveKind::Mer));
}

#[test]
#[should_panic(expected = "MultiStepJoin")]
fn the_engine_refuses_the_false_area_test() {
    refused(|plan| plan.false_area_test(true));
}

#[test]
fn kernel_dispatch_gauge_marks_the_selected_path() {
    let engine = SpatialEngine::new(JoinConfig::default());
    let snap = engine.metrics().snapshot();
    let label = JoinConfig::default().kernel_dispatch().label();
    assert_eq!(
        snap.gauge(&format!("msj_kernel_dispatch{{path=\"{label}\"}}")),
        1.0
    );
    // Forcing scalar moves the marker.
    let scalar = SpatialEngine::new(EngineConfig {
        force_scalar: true,
        ..EngineConfig::default()
    });
    let snap = scalar.metrics().snapshot();
    assert_eq!(snap.gauge("msj_kernel_dispatch{path=\"scalar\"}"), 1.0);
    // Traces carry the same label per request.
    let traced = SpatialEngine::new(EngineConfig {
        obs: ObsConfig::with_traces(8),
        ..EngineConfig::default()
    });
    let h = traced.register(msj_datagen::small_carto(10, 16.0, 2004));
    let _ = traced.prepare_join(&h, &h).run();
    let traces = traced.recent_traces();
    assert!(!traces.is_empty());
    assert!(traces
        .iter()
        .all(|t| t.dispatch == traced.config().kernel_dispatch().label()));
}

#[test]
fn submit_surface_covers_all_request_shapes() {
    let rel = msj_datagen::small_carto(40, 24.0, 1003);
    let world = rel.bounding_rect().unwrap();
    let engine = SpatialEngine::new(JoinConfig::default());
    let h = engine.register(rel.clone());
    let p = Point::new(
        world.xmin() + world.width() * 0.4,
        world.ymin() + world.height() * 0.6,
    );
    let w = Rect::from_bounds(
        p.x,
        p.y,
        p.x + world.width() * 0.1,
        p.y + world.height() * 0.1,
    );
    let responses = engine.submit_batch([
        Request::SelfJoin {
            dataset: h.id(),
            execution: Some(Execution::Fused { threads: 2 }),
        },
        Request::Point {
            dataset: h.id(),
            point: p,
        },
        Request::Window {
            dataset: h.id(),
            window: w,
        },
        Request::Point {
            dataset: 99,
            point: p,
        },
    ]);
    let Ok(Response::Join(join)) = &responses[0] else {
        panic!("self-join failed: {:?}", responses[0].as_ref().err());
    };
    // Self-join ground truth by exhaustive scan.
    let mut expect = Vec::new();
    let mut counts = OpCounts::new();
    for oa in rel.iter() {
        for ob in rel.iter() {
            if oa.mbr().intersects(&ob.mbr())
                && msj_exact::quadratic_intersects(&oa.region, &ob.region, &mut counts)
            {
                expect.push((oa.id, ob.id));
            }
        }
    }
    assert_eq!(sorted(join.pairs.clone()), sorted(expect));
    let Ok(Response::Selection(point)) = &responses[1] else {
        panic!("point query failed");
    };
    let expect_point: Vec<ObjectId> = rel
        .iter()
        .filter(|o| o.region.contains_point(p))
        .map(|o| o.id)
        .collect();
    let mut got = point.ids.clone();
    got.sort_unstable();
    assert_eq!(got, expect_point);
    assert!(matches!(responses[2], Ok(Response::Selection(_))));
    assert!(matches!(responses[3], Err(EngineError::UnknownDataset(99))));
}

#[test]
#[should_panic(expected = "not registered on this engine")]
fn foreign_handles_are_rejected() {
    let rel = msj_datagen::small_carto(10, 16.0, 1009);
    let this = SpatialEngine::new(JoinConfig::default());
    let other = SpatialEngine::new(JoinConfig::default());
    let mine = this.register(rel.clone());
    let foreign = other.register(rel);
    // A foreign handle must never reach the id-keyed cache.
    let _ = this.prepare_join(&mine, &foreign);
}

#[test]
fn admission_refuses_before_preparing() {
    let a = msj_datagen::small_carto(30, 24.0, 1010);
    let b = msj_datagen::small_carto(30, 24.0, 1011);
    let engine = SpatialEngine::new(JoinConfig::default()).with_admission_limit(0.0);
    let (ha, hb) = (engine.register(a), engine.register(b));
    let denied = engine.submit(Request::Join {
        a: ha.id(),
        b: hb.id(),
        execution: None,
    });
    assert!(matches!(denied, Err(EngineError::AdmissionDenied { .. })));
    // The refused join never built (or cached) pair-level state.
    assert!(engine.cached_join((ha.id(), hb.id())).is_none());
}

#[test]
fn responses_carry_cost_accounting() {
    let a = msj_datagen::small_carto(40, 24.0, 1004);
    let b = msj_datagen::small_carto(40, 24.0, 1005);
    let engine = SpatialEngine::new(JoinConfig::default());
    let (ha, hb) = (engine.register(a), engine.register(b));
    let first = engine
        .submit(Request::Join {
            a: ha.id(),
            b: hb.id(),
            execution: None,
        })
        .unwrap();
    // First submission: a-priori estimate.
    assert!(!first.admission().from_history);
    assert!(first.admission().estimated_s > 0.0);
    let Response::Join(first) = &first else {
        panic!()
    };
    assert!(first.admission.cost.filter_yield_observed > 0.0);
    assert!(first.admission.cost.raster_decided_observed > 0.0);
    // Second submission: the estimate comes from the observed run.
    let second = engine
        .submit(Request::Join {
            a: ha.id(),
            b: hb.id(),
            execution: None,
        })
        .unwrap();
    assert!(second.admission().from_history);
    let visits = first.stats.mbr_join.io.logical;
    let observed = figure18_cost(
        &first.stats,
        visits,
        ExactCostKind::TrStar,
        &Default::default(),
    );
    assert!((second.admission().estimated_s - observed.total_s()).abs() < 1e-9);
    // Step 1 counts the same node visits every run: the history-based
    // estimate is exactly the cost the run then observes.
    assert_eq!(
        second.admission().estimated_s,
        second.admission().cost.total_s()
    );
}

#[test]
fn admission_limit_refuses_expensive_joins() {
    let a = msj_datagen::small_carto(30, 24.0, 1006);
    let b = msj_datagen::small_carto(30, 24.0, 1007);
    let engine = SpatialEngine::new(JoinConfig::default()).with_admission_limit(0.0);
    let (ha, hb) = (engine.register(a), engine.register(b));
    let denied = engine.submit(Request::Join {
        a: ha.id(),
        b: hb.id(),
        execution: None,
    });
    assert!(
        matches!(denied, Err(EngineError::AdmissionDenied { .. })),
        "zero budget must refuse every join: {denied:?}"
    );
    // Selections are not admission-controlled (they are the cheap
    // traffic admission control protects).
    let world = ha.relation().bounding_rect().unwrap();
    let ok = engine.submit(Request::Point {
        dataset: ha.id(),
        point: Point::new(world.xmin(), world.ymin()),
    });
    assert!(ok.is_ok());
}

#[test]
fn metrics_and_traces_populate_after_requests() {
    let a = msj_datagen::small_carto(40, 24.0, 1012);
    let b = msj_datagen::small_carto(40, 24.0, 1013);
    let world = a.bounding_rect().unwrap();
    let engine = SpatialEngine::new(EngineConfig {
        obs: ObsConfig::with_traces(8),
        ..EngineConfig::default()
    });
    let (ha, hb) = (engine.register(a), engine.register(b));
    let p = Point::new(
        world.xmin() + world.width() * 0.5,
        world.ymin() + world.height() * 0.5,
    );
    let w = Rect::from_bounds(
        p.x,
        p.y,
        p.x + world.width() * 0.1,
        p.y + world.height() * 0.1,
    );
    let responses = engine.submit_batch([
        Request::Join {
            a: ha.id(),
            b: hb.id(),
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
    assert!(responses.iter().all(|r| r.is_ok()));
    let snap = engine.metrics().snapshot();
    assert_eq!(snap.counter("msj_datasets_registered_total"), 2);
    assert_eq!(snap.counter("msj_admission_accept_total"), 1);
    assert_eq!(snap.counter("msj_prepared_cache_misses_total"), 1);
    for kind in ["join", "point", "window"] {
        let key = format!("msj_request_latency_nanos{{kind=\"{kind}\"}}");
        let hist = snap
            .histogram(&key)
            .unwrap_or_else(|| panic!("{key} missing"));
        assert_eq!(hist.count, 1, "{key}");
        assert!(hist.sum > 0, "{key} recorded no time");
    }
    assert!(snap.counter("msj_step_nanos_total{step=\"step0\"}") > 0);
    assert!(snap.counter("msj_step_nanos_total{step=\"step1\"}") > 0);
    // Both exporters render the live values.
    let prom = engine.metrics().render_prometheus();
    for family in [
        "msj_request_latency_nanos",
        "msj_step_nanos_total",
        "msj_admission_shed_total",
    ] {
        assert!(prom.contains(family), "{family} missing from exposition");
    }
    assert!(engine
        .metrics()
        .snapshot_json()
        .contains(msj_obs::SNAPSHOT_SCHEMA));
    // The ring carries one trace per request, newest last.
    let traces = engine.recent_traces();
    assert_eq!(traces.len(), 3);
    assert!(traces.iter().all(|t| t.admitted));
    let join_trace = traces
        .iter()
        .find(|t| t.kind == "join")
        .expect("join trace");
    assert!(join_trace.candidates > 0);
    assert!(join_trace.estimated_s > 0.0);
    assert_eq!(join_trace.datasets, (ha.id(), hb.id()));
}

#[test]
fn disabled_obs_is_silent_and_changes_nothing() {
    let a = msj_datagen::small_carto(40, 24.0, 1014);
    let b = msj_datagen::small_carto(40, 24.0, 1015);
    let on = SpatialEngine::new(JoinConfig::default());
    let off = SpatialEngine::new(EngineConfig {
        obs: ObsConfig::disabled(),
        ..EngineConfig::default()
    });
    let (oa, ob) = (on.register(a.clone()), on.register(b.clone()));
    let (fa, fb) = (off.register(a), off.register(b));
    let want = on.prepare_join(&oa, &ob).run();
    let got = off.prepare_join(&fa, &fb).run();
    assert_eq!(got.pairs, want.pairs);
    assert_eq!(got.stats.exact_ops, want.stats.exact_ops);
    // Disabled means zero clock reads: every wall-clock stat is zero
    // and the registry stays empty.
    assert_eq!(got.stats.step0_nanos, 0);
    assert_eq!(
        got.stats.step1_nanos + got.stats.step2_nanos + got.stats.step3_nanos,
        0
    );
    assert!(got.worker_lanes.is_empty());
    let snap = off.metrics().snapshot();
    assert_eq!(snap.counter("msj_datasets_registered_total"), 0);
    assert_eq!(snap.counter("msj_request_latency_nanos{kind=\"join\"}"), 0);
    assert!(off.recent_traces().is_empty());
    // The enabled engine recorded the same traffic.
    assert!(
        on.metrics()
            .snapshot()
            .counter("msj_step_nanos_total{step=\"step1\"}")
            > 0
    );
}

#[test]
fn last_stats_holds_the_latest_run() {
    let a = msj_datagen::small_carto(12, 16.0, 1016);
    let b = msj_datagen::small_carto(12, 16.0, 1017);
    let engine = SpatialEngine::new(JoinConfig::default());
    let (ha, hb) = (engine.register(a), engine.register(b));
    let prepared = engine.prepare_join(&ha, &hb);
    assert_eq!(prepared.last_stats(), None);
    for _ in 0..3 {
        // The whole struct, wall-clock fields included.
        let stats = prepared.run().stats;
        assert_eq!(prepared.last_stats(), Some(stats));
    }
}

#[test]
fn shed_requests_are_counted_and_traced() {
    let a = msj_datagen::small_carto(30, 24.0, 1018);
    let b = msj_datagen::small_carto(30, 24.0, 1019);
    let engine = SpatialEngine::new(EngineConfig {
        obs: ObsConfig::with_traces(4),
        ..EngineConfig::default()
    })
    .with_admission_limit(0.0);
    let (ha, hb) = (engine.register(a), engine.register(b));
    let denied = engine.submit(Request::Join {
        a: ha.id(),
        b: hb.id(),
        execution: None,
    });
    assert!(matches!(denied, Err(EngineError::AdmissionDenied { .. })));
    let snap = engine.metrics().snapshot();
    assert_eq!(snap.counter("msj_admission_shed_total"), 1);
    assert_eq!(snap.counter("msj_admission_accept_total"), 0);
    let traces = engine.recent_traces();
    assert_eq!(traces.len(), 1);
    assert!(!traces[0].admitted);
    assert_eq!(traces[0].results, 0);
}

/// Satellite: the retry-after hint a network front derives from an
/// `AdmissionDenied` must come from the history-informed §5 estimate
/// when the pair has run before, and from the a-priori size-based
/// estimate otherwise — `from_history` pins which path produced it.
#[test]
fn admission_denied_provenance_pins_history_and_a_priori_paths() {
    let engine = SpatialEngine::new(JoinConfig::default());
    let a = engine.register(msj_datagen::small_carto(30, 24.0, 1301));
    let b = engine.register(msj_datagen::small_carto(30, 24.0, 1302));
    let request = Request::Join {
        a: a.id(),
        b: b.id(),
        execution: None,
    };
    // Fresh pair, tight limit: the a-priori estimate decides.
    engine.set_admission_limit(Some(0.0));
    match engine.submit(request) {
        Err(EngineError::AdmissionDenied {
            from_history,
            estimated_s,
            ..
        }) => {
            assert!(!from_history, "no run history exists yet");
            assert!(estimated_s > 0.0);
        }
        other => panic!("expected AdmissionDenied, got {other:?}"),
    }
    // Lift the limit, run once (history forms), tighten again: the
    // observed-history estimate decides.
    engine.set_admission_limit(None);
    assert_eq!(engine.admission_limit(), None);
    engine.submit(request).expect("admitted without a limit");
    engine.set_admission_limit(Some(0.0));
    assert_eq!(engine.admission_limit(), Some(0.0));
    match engine.submit(request) {
        Err(EngineError::AdmissionDenied {
            from_history,
            estimated_s,
            ..
        }) => {
            assert!(from_history, "the pair ran; history must decide");
            assert!(estimated_s > 0.0);
        }
        other => panic!("expected AdmissionDenied, got {other:?}"),
    }
}

#[test]
fn engine_batched_selections_match_serial_responses() {
    let rel = msj_datagen::small_carto(60, 24.0, 1401);
    let world = rel.bounding_rect().unwrap();
    let engine = SpatialEngine::new(JoinConfig::default());
    let h = engine.register(rel);
    let points: Vec<Point> = (0..20)
        .map(|i| {
            Point::new(
                world.xmin() + world.width() * (i as f64 * 0.37).fract(),
                world.ymin() + world.height() * (i as f64 * 0.61).fract(),
            )
        })
        .collect();
    let windows: Vec<Rect> = (0..12)
        .map(|i| {
            let cx = world.xmin() + world.width() * (i as f64 * 0.31).fract();
            let cy = world.ymin() + world.height() * (i as f64 * 0.47).fract();
            let side = world.width() * (0.01 + 0.08 * (i as f64 * 0.13).fract());
            Rect::from_bounds(cx, cy, cx + side, cy + side)
        })
        .collect();
    let batched = engine.point_query_batch(&h, &points);
    assert_eq!(batched.len(), points.len());
    for (i, &p) in points.iter().enumerate() {
        let serial = select(
            &engine,
            Request::Point {
                dataset: h.id(),
                point: p,
            },
        );
        assert_eq!(batched[i].ids, serial.ids, "point {p:?}");
        assert_eq!(batched[i].exact_ops, serial.exact_ops);
        assert_eq!(batched[i].stats.candidates, serial.stats.candidates);
        assert_eq!(batched[i].stats.exact_tests, serial.stats.exact_tests);
    }
    let batched = engine.window_query_batch(&h, &windows);
    assert_eq!(batched.len(), windows.len());
    for (i, w) in windows.iter().enumerate() {
        let serial = select(
            &engine,
            Request::Window {
                dataset: h.id(),
                window: *w,
            },
        );
        assert_eq!(batched[i].ids, serial.ids, "window {w:?}");
        assert_eq!(batched[i].exact_ops, serial.exact_ops);
        assert_eq!(batched[i].stats.candidates, serial.stats.candidates);
        assert_eq!(batched[i].stats.exact_tests, serial.stats.exact_tests);
    }
    // The batched path records one latency sample per query.
    let snap = engine.metrics().snapshot();
    let hist = snap
        .histogram("msj_request_latency_nanos{kind=\"point\"}")
        .expect("point latency family exists");
    assert_eq!(hist.count, 2 * points.len() as u64);
}

/// Satellite requirement: one test that matches on *every*
/// `EngineError` variant, so adding a variant without Display/kind
/// coverage fails here first.
#[test]
fn engine_error_matches_display_and_kind_on_every_variant() {
    let variants: Vec<EngineError> = vec![
        EngineError::UnknownDataset(7),
        EngineError::AdmissionDenied {
            estimated_s: 2.0,
            limit_s: 1.0,
            from_history: false,
        },
        EngineError::DeadlineExceeded {
            elapsed: Duration::from_millis(12),
            partial_candidates: 34,
        },
        EngineError::Cancelled {
            partial_candidates: 5,
        },
        EngineError::WorkerPanicked {
            worker: 2,
            message: "boom".into(),
        },
    ];
    for err in variants {
        // The enum is #[non_exhaustive]; the wildcard arm is the
        // forward-compatibility seam every caller needs (redundant
        // only inside the defining crate, hence the allow).
        #[allow(unreachable_patterns)]
        let expected_kind = match &err {
            EngineError::UnknownDataset(id) => {
                assert_eq!(*id, 7);
                "unknown_dataset"
            }
            EngineError::AdmissionDenied {
                estimated_s,
                limit_s,
                from_history,
            } => {
                assert!(estimated_s > limit_s);
                assert!(!from_history);
                "admission_denied"
            }
            EngineError::DeadlineExceeded {
                elapsed,
                partial_candidates,
            } => {
                assert_eq!(*elapsed, Duration::from_millis(12));
                assert_eq!(*partial_candidates, 34);
                "deadline_exceeded"
            }
            EngineError::Cancelled { partial_candidates } => {
                assert_eq!(*partial_candidates, 5);
                "cancelled"
            }
            EngineError::WorkerPanicked { worker, message } => {
                assert_eq!(*worker, 2);
                assert_eq!(message, "boom");
                "worker_panicked"
            }
            _ => unreachable!("non_exhaustive wildcard"),
        };
        assert_eq!(err.kind(), expected_kind);
        assert!(EngineError::ALL_KINDS.contains(&err.kind()));
        let shown = err.to_string();
        assert!(!shown.is_empty());
        let dyn_err: &dyn std::error::Error = &err;
        assert_eq!(dyn_err.to_string(), shown);
    }
}

#[test]
fn expired_deadline_returns_deadline_exceeded_and_engine_recovers() {
    let a = msj_datagen::small_carto(60, 24.0, 1101);
    let b = msj_datagen::small_carto(60, 24.0, 1102);
    let engine = SpatialEngine::new(JoinConfig::default());
    let (ha, hb) = (engine.register(a), engine.register(b));
    for execution in [Execution::Serial, Execution::Fused { threads: 4 }] {
        // Baseline under this exact policy (serial keeps Step-1
        // order; fused sorts canonically).
        let expect = match engine
            .submit(Request::Join {
                a: ha.id(),
                b: hb.id(),
                execution: Some(execution),
            })
            .unwrap()
        {
            Response::Join(resp) => resp.pairs,
            other => panic!("expected a join response, got {other:?}"),
        };
        // A token whose deadline already passed stops the run at the
        // first batch boundary.
        let token = CancelToken::with_deadline(Duration::ZERO);
        let err = engine
            .submit_with_cancel(
                Request::Join {
                    a: ha.id(),
                    b: hb.id(),
                    execution: Some(execution),
                },
                &token,
            )
            .unwrap_err();
        match err {
            EngineError::DeadlineExceeded { elapsed, .. } => {
                assert!(elapsed >= Duration::ZERO)
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        // Same engine, same request, fresh token: byte-identical.
        let clean = engine
            .submit(Request::Join {
                a: ha.id(),
                b: hb.id(),
                execution: Some(execution),
            })
            .unwrap();
        match clean {
            Response::Join(resp) => assert_eq!(resp.pairs, expect),
            other => panic!("expected a join response, got {other:?}"),
        }
    }
    let snap = engine.metrics().snapshot();
    assert!(snap.counter("msj_deadline_exceeded_total") >= 2);
    assert_eq!(
        snap.counter("msj_request_errors_total{kind=\"deadline_exceeded\"}"),
        2
    );
}

#[test]
fn explicit_cancellation_returns_cancelled() {
    let a = msj_datagen::small_carto(40, 24.0, 1105);
    let b = msj_datagen::small_carto(40, 24.0, 1106);
    let engine = SpatialEngine::new(JoinConfig::default());
    let (ha, hb) = (engine.register(a), engine.register(b));
    let token = CancelToken::new();
    token.cancel();
    let err = engine
        .submit_with_cancel(
            Request::Join {
                a: ha.id(),
                b: hb.id(),
                execution: None,
            },
            &token,
        )
        .unwrap_err();
    assert!(matches!(err, EngineError::Cancelled { .. }));
    assert_eq!(
        engine
            .metrics()
            .snapshot()
            .counter("msj_request_cancelled_total"),
        1
    );
}

#[test]
fn injected_cancel_fault_stops_mid_run() {
    let a = msj_datagen::small_carto(80, 24.0, 1107);
    let b = msj_datagen::small_carto(80, 24.0, 1108);
    let engine = SpatialEngine::new(EngineConfig {
        fault: FaultConfig::seeded(3, msj_fault::FaultKind::CancelAtBatch { batch: 0 }),
        ..JoinConfig::builder().batch_pairs(16).build().into()
    });
    let (ha, hb) = (engine.register(a), engine.register(b));
    let token = CancelToken::new();
    let err = engine
        .submit_with_cancel(
            Request::Join {
                a: ha.id(),
                b: hb.id(),
                execution: None,
            },
            &token,
        )
        .unwrap_err();
    assert!(matches!(err, EngineError::Cancelled { .. }), "{err:?}");
    // The injected fault is one-shot per engine: the retry completes.
    let clean = engine.submit(Request::Join {
        a: ha.id(),
        b: hb.id(),
        execution: None,
    });
    assert!(clean.is_ok());
    let snap = engine.metrics().snapshot();
    assert_eq!(
        snap.counter("msj_fault_injected_total{site=\"cancel_at_batch\"}"),
        1
    );
}

#[test]
fn injected_worker_panic_is_contained_and_engine_stays_clean() {
    let a = msj_datagen::small_carto(80, 24.0, 1109);
    let b = msj_datagen::small_carto(80, 24.0, 1110);
    for execution in [Execution::Serial, Execution::Fused { threads: 4 }] {
        // Fault-free reference under this exact policy.
        let baseline = {
            let engine = SpatialEngine::new(JoinConfig::builder().execution(execution).build());
            let (ha, hb) = (engine.register(a.clone()), engine.register(b.clone()));
            engine.prepare_join(&ha, &hb).run().pairs
        };
        for seed in [1u64, 42, 977] {
            // Small batches guarantee every run sees at least
            // BATCH_SPREAD batch boundaries, so the seeded fault
            // always lands.
            let plan = JoinConfig::builder()
                .execution(execution)
                .batch_pairs(8)
                .build();
            let engine = SpatialEngine::new(EngineConfig {
                fault: FaultConfig::seeded(seed, msj_fault::FaultKind::WorkerPanic),
                ..plan.into()
            });
            let (ha, hb) = (engine.register(a.clone()), engine.register(b.clone()));
            let request = Request::Join {
                a: ha.id(),
                b: hb.id(),
                execution: None,
            };
            let err = engine.submit(request).unwrap_err();
            match &err {
                EngineError::WorkerPanicked { message, .. } => {
                    assert!(message.contains("injected fault"), "{message}")
                }
                other => panic!("expected WorkerPanicked, got {other:?}"),
            }
            // The panic never poisons engine state: the identical
            // request on the same instance completes byte-identically
            // to the fault-free engine.
            let clean = engine
                .submit(Request::Join {
                    a: ha.id(),
                    b: hb.id(),
                    execution: None,
                })
                .unwrap();
            match clean {
                Response::Join(resp) => assert_eq!(resp.pairs, baseline),
                other => panic!("expected a join response, got {other:?}"),
            }
            let snap = engine.metrics().snapshot();
            assert_eq!(snap.counter("msj_worker_panics_total"), 1);
            assert_eq!(
                snap.counter("msj_fault_injected_total{site=\"worker_panic\"}"),
                1
            );
        }
    }
}

#[test]
fn failed_requests_are_traced_and_counted_per_kind() {
    let a = msj_datagen::small_carto(40, 24.0, 1113);
    let b = msj_datagen::small_carto(40, 24.0, 1114);
    let engine = SpatialEngine::new(EngineConfig {
        obs: ObsConfig::with_traces(8),
        fault: FaultConfig::seeded(9, msj_fault::FaultKind::WorkerPanic),
        ..JoinConfig::builder().batch_pairs(8).build().into()
    });
    let (ha, hb) = (engine.register(a), engine.register(b));
    let err = engine
        .submit(Request::Join {
            a: ha.id(),
            b: hb.id(),
            execution: None,
        })
        .unwrap_err();
    assert!(matches!(err, EngineError::WorkerPanicked { .. }));
    let traces = engine.recent_traces();
    assert!(traces.iter().any(|t| t.kind == "join_panic"));
    let prom = engine.metrics().render_prometheus();
    assert!(prom.contains("msj_worker_panics_total 1"));
    assert!(prom.contains("msj_request_errors_total{kind=\"worker_panicked\"} 1"));
}

#[test]
fn engine_selections_match_linear_scan() {
    let rel = msj_datagen::small_carto(60, 24.0, 1008);
    let world = rel.bounding_rect().unwrap();
    for config in [JoinConfig::default(), JoinConfig::version1()] {
        let engine = SpatialEngine::new(config);
        let h = engine.register(rel.clone());
        for i in 0..25 {
            let p = Point::new(
                world.xmin() + world.width() * (i as f64 * 0.37).fract(),
                world.ymin() + world.height() * (i as f64 * 0.61).fract(),
            );
            let dataset = h.id();
            let mut got = select(&engine, Request::Point { dataset, point: p }).ids;
            got.sort_unstable();
            let mut expect: Vec<ObjectId> = rel
                .iter()
                .filter(|o| o.region.contains_point(p))
                .map(|o| o.id)
                .collect();
            expect.sort_unstable();
            assert_eq!(got, expect, "point {p:?}");
            let side = world.width() * 0.07;
            let w = Rect::from_bounds(p.x, p.y, p.x + side, p.y + side);
            let mut got = select(&engine, Request::Window { dataset, window: w }).ids;
            got.sort_unstable();
            let mut expect: Vec<ObjectId> = rel
                .iter()
                .filter(|o| msj_exact::window::region_intersects_rect_reference(&o.region, &w))
                .map(|o| o.id)
                .collect();
            expect.sort_unstable();
            assert_eq!(got, expect, "window {w:?}");
        }
    }
}

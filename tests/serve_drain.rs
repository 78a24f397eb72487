//! Graceful drain under load: no hung connection, no silent drop.
//!
//! Concurrent clients keep a server busy while it shuts down. The
//! contract under test:
//!
//! * every request that was sent receives **exactly one** response —
//!   a byte-identical completed answer, or an explicit
//!   `Shed`/`Draining`/`DeadlineExceeded`/`Cancelled` — never silence;
//! * in-flight and queued work admitted before the drain completes
//!   byte-identically (given a roomy drain deadline);
//! * a tiny drain deadline still exits within its bound, converting the
//!   backlog into explicit `Draining`/`Cancelled` responses instead of
//!   dropping it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use msj::core::{EngineConfig, JoinConfig, Request, SpatialEngine};
use msj::fault::{FaultConfig, FaultKind, FaultSession};
use msj::serve::{
    encode_response, response_body_for, Client, ServeConfig, Server, WireRequest, WireRequestBody,
    WireStatus,
};

fn to_request(body: &WireRequestBody) -> Request {
    match *body {
        WireRequestBody::Join { a, b } => Request::Join {
            a,
            b,
            execution: None,
        },
        WireRequestBody::SelfJoin { dataset } => Request::SelfJoin {
            dataset,
            execution: None,
        },
        WireRequestBody::Point { dataset, x, y } => Request::Point {
            dataset,
            point: msj::geom::Point::new(x, y),
        },
        WireRequestBody::Window { dataset, bounds } => Request::Window {
            dataset,
            window: msj::geom::Rect::new(
                msj::geom::Point::new(bounds[0], bounds[1]),
                msj::geom::Point::new(bounds[2], bounds[3]),
            ),
        },
        WireRequestBody::Metrics => unreachable!(),
    }
}

/// Per-client mix: one join (slow) plus a spread of selections (fast,
/// batchable). Ids are disjoint across clients.
fn client_workload(client: u64, a: u32, b: u32) -> Vec<WireRequest> {
    let base = client * 100;
    let mut requests = vec![WireRequest::join(base + 1, a, b)];
    for i in 0..6 {
        let t = (i as f64 + 0.5) / 6.0;
        requests.push(WireRequest::point(base + 2 + i, a, t, 1.0 - t));
    }
    requests.push(WireRequest::window(base + 9, b, [0.2, 0.2, 0.7, 0.7]));
    requests
}

struct Outcome {
    completed: usize,
    refused: usize,
}

/// Sends the workload pipelined, then collects one reply per request.
/// Panics on a missing reply (hang → client read timeout), an unknown
/// status, or a completed reply that differs from its oracle frame.
fn drive_client(
    addr: std::net::SocketAddr,
    requests: &[WireRequest],
    oracle: &std::collections::HashMap<u64, Vec<u8>>,
) -> Outcome {
    let mut client = Client::connect_with_timeout(addr, Duration::from_secs(30)).expect("connect");
    for request in requests {
        client.send(request).expect("send");
    }
    let mut outcome = Outcome {
        completed: 0,
        refused: 0,
    };
    for _ in requests {
        let reply = client.recv().expect("every sent request gets a reply");
        match reply.body.status() {
            WireStatus::Ok => {
                let want = oracle
                    .get(&reply.request_id)
                    .unwrap_or_else(|| panic!("unknown request id {}", reply.request_id));
                assert_eq!(
                    &reply.frame, want,
                    "completed reply {} diverged from the in-process oracle",
                    reply.request_id
                );
                outcome.completed += 1;
            }
            WireStatus::Shed
            | WireStatus::Draining
            | WireStatus::DeadlineExceeded
            | WireStatus::Cancelled => outcome.refused += 1,
            other => panic!("unexpected status {other:?} for {}", reply.request_id),
        }
    }
    outcome
}

/// Builds the serving engine plus a twin used only to precompute oracle
/// frames. Computing the oracle on a *separate* engine keeps the
/// serving engine's prepared-join cache cold, so the drain really
/// catches joins mid-flight — and doubles as a cross-engine determinism
/// check: the wire projection must not depend on which engine instance
/// ran the request.
fn build_engines(objects: usize) -> (Arc<SpatialEngine>, Arc<SpatialEngine>, u32, u32) {
    build_engines_with(EngineConfig::default(), objects)
}

/// [`build_engines`] with the serving engine under `serving`; the oracle
/// twin always runs the default configuration.
fn build_engines_with(
    serving: EngineConfig,
    objects: usize,
) -> (Arc<SpatialEngine>, Arc<SpatialEngine>, u32, u32) {
    let engine = Arc::new(SpatialEngine::new(serving));
    let oracle = Arc::new(SpatialEngine::new(JoinConfig::default()));
    let (mut a, mut b) = (0, 0);
    for e in [&engine, &oracle] {
        a = e.register(msj::datagen::small_carto(objects, 8.0, 31)).id();
        b = e.register(msj::datagen::small_carto(objects, 8.0, 47)).id();
    }
    (engine, oracle, a, b)
}

fn oracle_for(
    engine: &SpatialEngine,
    workloads: &[Vec<WireRequest>],
) -> std::collections::HashMap<u64, Vec<u8>> {
    workloads
        .iter()
        .flatten()
        .map(|req| {
            (
                req.request_id,
                encode_response(
                    req.request_id,
                    &response_body_for(&engine.submit(to_request(&req.body))),
                ),
            )
        })
        .collect()
}

#[test]
fn drain_under_load_completes_admitted_work_and_refuses_the_rest_explicitly() {
    let (engine, oracle_engine, a, b) = build_engines(120);
    let clients: Vec<Vec<WireRequest>> = (0..4).map(|c| client_workload(c, a, b)).collect();
    let oracle = Arc::new(oracle_for(&oracle_engine, &clients));

    let server = Server::start(
        engine.clone(),
        ServeConfig {
            workers: 2,
            // Roomy: everything admitted before the drain completes.
            drain_deadline: Duration::from_secs(30),
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    let addr = server.addr();

    let handles: Vec<_> = clients
        .iter()
        .cloned()
        .map(|requests| {
            let oracle = oracle.clone();
            std::thread::spawn(move || drive_client(addr, &requests, &oracle))
        })
        .collect();
    // Shut down while the joins are still grinding.
    std::thread::sleep(Duration::from_millis(15));
    server.shutdown();

    let mut completed = 0;
    let mut refused = 0;
    for handle in handles {
        let outcome = handle.join().expect("client thread");
        completed += outcome.completed;
        refused += outcome.refused;
    }
    let report = server.join();
    assert_eq!(
        completed + refused,
        4 * 8,
        "every sent request must be answered exactly once"
    );
    assert!(
        completed > 0,
        "a 30s drain deadline must complete the admitted work"
    );
    assert!(report.clean, "drain must settle inside a roomy deadline");
    // Explicit refusals during drain are visible in the metrics.
    let snapshot = engine.metrics().snapshot();
    assert_eq!(
        u64::try_from(refused).unwrap(),
        snapshot.counter("msj_draining_responses_total")
            + snapshot.counter("msj_request_shed_total{reason=\"queue_full\"}")
            + snapshot.counter("msj_request_shed_total{reason=\"admission\"}")
            + snapshot.counter("msj_request_shed_total{reason=\"conn_cap\"}"),
        "every refusal is counted"
    );
}

#[test]
fn tiny_drain_deadline_still_exits_bounded_with_explicit_abandonment() {
    // One worker, stalled inside the first join by an injected straggler
    // (the plan fires once per engine, on the first candidate batch): the
    // backlog behind it is deep by construction, however fast a join is.
    let stall = (0..)
        .map(|seed| FaultConfig::seeded(seed, FaultKind::SlowWorker { millis: 1000 }))
        .find(|&plan| FaultSession::new(plan).target_batch() == 0)
        .expect("some seed targets the first batch");
    let serving = EngineConfig {
        fault: stall,
        ..EngineConfig::default()
    };
    let (engine, oracle_engine, a, b) = build_engines_with(serving, 250);
    let requests: Vec<WireRequest> = (0..6).map(|i| WireRequest::join(i, a, b)).collect();
    let oracle = oracle_for(&oracle_engine, std::slice::from_ref(&requests));

    let server = Server::start(
        engine.clone(),
        ServeConfig {
            workers: 1,
            drain_deadline: Duration::from_millis(1),
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    let mut client =
        Client::connect_with_timeout(server.addr(), Duration::from_secs(30)).expect("connect");
    // A warm-up round trip makes sure the connection's reader thread is
    // running, so the pipelined joins below are read and admitted
    // promptly.
    let warm = client
        .call(&WireRequest::point(100, a, 0.5, 0.5))
        .expect("warm-up");
    assert_eq!(warm.body.status(), WireStatus::Ok);
    for request in &requests {
        client.send(request).expect("send");
    }
    // Drain once the backlog is in place: the first join on the stalled
    // worker, the other five queued behind it.
    let admitted = Instant::now();
    while engine
        .metrics()
        .snapshot()
        .gauge("msj_queue_depth{queue=\"join\"}")
        < 5.0
    {
        assert!(
            admitted.elapsed() < Duration::from_secs(10),
            "the pipelined joins were never all admitted"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    server.shutdown();
    let started = Instant::now();
    let (mut completed, mut refused) = (0usize, 0usize);
    for _ in &requests {
        let reply = client.recv().expect("every sent request gets a reply");
        match reply.body.status() {
            WireStatus::Ok => {
                assert_eq!(
                    reply.frame, oracle[&reply.request_id],
                    "completed reply {} diverged from the in-process oracle",
                    reply.request_id
                );
                completed += 1;
            }
            WireStatus::Shed
            | WireStatus::Draining
            | WireStatus::DeadlineExceeded
            | WireStatus::Cancelled => refused += 1,
            other => panic!("unexpected status {other:?} for {}", reply.request_id),
        }
    }
    let report = server.join();
    // Exit must respect the bound: deadline + the cancellation grace,
    // with scheduling slack.
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "drain deadline did not bound the exit"
    );
    assert_eq!(completed + refused, requests.len());
    assert!(
        refused > 0,
        "a 1ms deadline over a deep join backlog must abandon something"
    );
    assert!(
        report.abandoned_queued > 0 || report.cancelled_inflight > 0,
        "the report must account for the abandonment: {report:?}"
    );
}

#[test]
fn post_drain_connections_are_refused_at_the_listener() {
    let (engine, _oracle, a, _) = build_engines(40);
    let server = Server::start(engine, ServeConfig::default()).expect("server starts");
    let addr = server.addr();
    let mut client = Client::connect(addr).expect("connect");
    client
        .call(&WireRequest::point(1, a, 0.5, 0.5))
        .expect("warm request");
    server.shutdown();
    let report = server.join();
    assert!(report.clean);
    // The listener is gone: a fresh connection cannot be established
    // (or is immediately closed on platforms that accept backlogged
    // connections before the close propagates).
    match Client::connect(addr) {
        Err(_) => {}
        Ok(mut c) => {
            let result = c.call(&WireRequest::point(2, a, 0.5, 0.5));
            assert!(result.is_err(), "post-drain server must not serve");
        }
    }
    // The old connection observes EOF, not a hang.
    assert!(client.recv().is_err());
}

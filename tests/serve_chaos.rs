//! Connection chaos: the serving front under deterministic wire faults.
//!
//! For every wire fault kind — `conn_reset`, `partial_write`,
//! `slow_client`, `drop_before_reply` — across several seeds, the suite
//! replays a fixed request sequence against a live server armed with
//! that plan and asserts the three wire-robustness invariants:
//!
//! 1. **Every completed response is byte-identical** to the encoding of
//!    the same request submitted in-process — an injected socket fault
//!    may kill a connection, but it can never corrupt a frame that
//!    parses (partial writes truncate, which the client detects);
//! 2. **The server survives**: after the fault, a reconnect serves the
//!    remaining sequence, and the drain still exits cleanly;
//! 3. **The injection is observable**: exactly one
//!    `msj_fault_injected_total{site="…"}` increment for the armed kind,
//!    and zero for every other site.

use std::sync::Arc;

use msj::core::{EngineConfig, Request, SpatialEngine};
use msj::fault::{FaultConfig, FaultKind};
use msj::geom::{Point, Rect};
use msj::serve::{
    encode_response, response_body_for, Client, ResponseBody, ServeConfig, Server, WireRequest,
    WireRequestBody,
};

fn seeds() -> Vec<u64> {
    match std::env::var("MSJ_FAULT_SEED")
        .ok()
        .and_then(|s| s.trim().parse::<u64>().ok())
    {
        Some(seed) => vec![seed],
        None => vec![11, 42, 977],
    }
}

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
            point: Point::new(x, y),
        },
        WireRequestBody::Window { dataset, bounds } => Request::Window {
            dataset,
            window: Rect::new(
                Point::new(bounds[0], bounds[1]),
                Point::new(bounds[2], bounds[3]),
            ),
        },
        WireRequestBody::Metrics => unreachable!("metrics is not an engine request"),
    }
}

/// The fixed request mix: long enough that any seed-derived target
/// response index (`< BATCH_SPREAD`) fires mid-sequence.
fn workload(a: u32, b: u32) -> Vec<WireRequest> {
    vec![
        WireRequest::point(1, a, 0.35, 0.65),
        WireRequest::window(2, b, [0.1, 0.1, 0.6, 0.6]),
        WireRequest::join(3, a, b),
        WireRequest::point(4, b, 0.8, 0.2),
        WireRequest::self_join(5, a),
        WireRequest::window(6, a, [0.4, 0.4, 0.9, 0.9]),
        WireRequest::point(7, a, 0.5, 0.5),
        WireRequest::join(8, b, a),
    ]
}

const WIRE_SITES: [&str; 4] = [
    "conn_reset",
    "partial_write",
    "slow_client",
    "drop_before_reply",
];

#[test]
fn wire_faults_never_corrupt_a_completed_response_and_the_server_survives() {
    let kinds = [
        FaultKind::ConnReset,
        FaultKind::PartialWrite,
        FaultKind::SlowClient { millis: 30 },
        FaultKind::DropBeforeReply,
    ];
    for seed in seeds() {
        for kind in kinds {
            run_chaos_cell(seed, kind);
        }
    }
}

fn run_chaos_cell(seed: u64, kind: FaultKind) {
    let cell = format!("seed {seed}, kind {:?}", kind);
    let engine = Arc::new(SpatialEngine::new(EngineConfig {
        fault: FaultConfig::seeded(seed, kind),
        ..EngineConfig::default()
    }));
    let a = engine.register(msj::datagen::small_carto(50, 8.0, 5)).id();
    let b = engine.register(msj::datagen::small_carto(50, 8.0, 6)).id();
    let requests = workload(a, b);

    // The oracle: each request submitted in-process, encoded through the
    // same deterministic projection the server uses. Running it on the
    // same engine beforehand is safe — the wire payload excludes timing,
    // the one thing repetition changes.
    let expected: Vec<Vec<u8>> = requests
        .iter()
        .map(|req| {
            encode_response(
                req.request_id,
                &response_body_for(&engine.submit(to_request(&req.body))),
            )
        })
        .collect();

    let server = Server::start(engine.clone(), ServeConfig::default()).expect("server starts");

    let mut client = Client::connect(server.addr()).expect("connect");
    let mut disconnects = 0;
    for (req, want) in requests.iter().zip(&expected) {
        // Retry across connection kills: the fault is one-shot, so the
        // second attempt always completes.
        let mut reply = None;
        for _attempt in 0..3 {
            let got = client.send(req).err().or_else(|| match client.recv() {
                Ok(r) => {
                    reply = Some(r);
                    None
                }
                Err(e) => Some(e),
            });
            match got {
                None => break,
                Some(_) => {
                    disconnects += 1;
                    client = Client::connect(server.addr()).expect("reconnect after fault");
                }
            }
        }
        let reply = reply.unwrap_or_else(|| panic!("no reply after retries ({cell})"));
        assert_eq!(
            reply.frame, *want,
            "completed response diverged from the in-process oracle ({cell})"
        );
    }

    // Invariant 3: the injection is visible in the metrics, at exactly
    // the armed site, exactly once.
    let snapshot = engine.metrics().snapshot();
    for site in WIRE_SITES {
        let count = snapshot.counter(&format!("msj_fault_injected_total{{site=\"{site}\"}}"));
        let want = u64::from(site == kind.site());
        assert_eq!(count, want, "fault counter for {site} ({cell})");
    }
    // Connection-killing kinds must actually have killed one; the slow
    // wire must not have.
    match kind {
        FaultKind::SlowClient { .. } => assert_eq!(disconnects, 0, "{cell}"),
        _ => assert_eq!(disconnects, 1, "{cell}"),
    }

    // Invariant 2: the server drains cleanly after the chaos.
    let reply = client
        .call(&WireRequest::metrics(99))
        .expect("metrics after fault");
    assert!(matches!(reply.body, ResponseBody::Text(_)));
    server.shutdown();
    assert!(server.join().clean, "unclean drain after fault ({cell})");
}

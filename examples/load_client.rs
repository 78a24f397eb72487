//! Load client: N concurrent connections hammering a live `msj-serve`
//! front, then the serving metrics that load produced.
//!
//! Starts an engine + server in-process, drives it from concurrent
//! client threads (pipelined point probes plus joins against an
//! undersized join queue so some requests shed), and prints:
//!
//! * the per-status outcome tally (completed / shed / other) with the
//!   first observed `retry_after_ms` backpressure hint;
//! * the queue-depth and shed/timeout counter families from the
//!   server's Prometheus exposition — fetched **over the wire** through
//!   the protocol's `Metrics` request;
//! * the drain report.
//!
//! The process exits nonzero if any request went unanswered or the
//! drain was not clean, so the example doubles as a CI smoke check.
//!
//! ```text
//! cargo run --release --example load_client
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use msj::core::{JoinConfig, SpatialEngine};
use msj::serve::{Client, ResponseBody, ServeConfig, Server, WireRequest, WireStatus};

const CLIENTS: usize = 8;
const POINTS_PER_CLIENT: u64 = 200;
const JOINS_PER_CLIENT: u64 = 8;

fn main() {
    let engine = Arc::new(SpatialEngine::new(JoinConfig::default()));
    let a = engine
        .register(msj::datagen::small_carto(400, 12.0, 7))
        .id();
    let b = engine
        .register(msj::datagen::small_carto(400, 12.0, 8))
        .id();

    // A deliberately tight front: the join queue bound is well under the
    // 64 pipelined joins, and each connection pipelines more requests
    // than its in-flight cap (64), so the overload machinery engages —
    // the admitted probes are answered in batches on their connection's
    // reader, and the overflow of both kinds sheds with a retry hint.
    let server = Server::start(
        engine.clone(),
        ServeConfig {
            workers: 2,
            queue_bound: 4,
            batch_max: 32,
            ..ServeConfig::default()
        },
    )
    .expect("server start");
    let addr = server.addr();
    println!("serving on {addr} ({CLIENTS} clients incoming)");

    let started = Instant::now();
    let handles: Vec<_> = (0..CLIENTS as u64)
        .map(|c| {
            std::thread::spawn(move || -> (u64, u64, u64, Option<u64>) {
                let mut client =
                    Client::connect_with_timeout(addr, Duration::from_secs(60)).expect("connect");
                let mut sent = 0;
                // Joins first, so they reach the join queue before the
                // probes fill the connection's in-flight cap.
                for _ in 0..JOINS_PER_CLIENT {
                    client.send(&WireRequest::join(sent, a, b)).expect("send");
                    sent += 1;
                }
                // Pipelined probes: the selections of one read are what
                // the server coalesces into shared descents.
                for i in 0..POINTS_PER_CLIENT {
                    let t = (c * POINTS_PER_CLIENT + i) as f64
                        / (CLIENTS as u64 * POINTS_PER_CLIENT) as f64;
                    client
                        .send(&WireRequest::point(sent, a, t, 1.0 - t))
                        .expect("send");
                    sent += 1;
                }
                let (mut ok, mut shed, mut other) = (0, 0, 0);
                let mut first_retry_hint = None;
                for _ in 0..sent {
                    let reply = client.recv().expect("reply");
                    match reply.body {
                        ResponseBody::Shed { retry_after_ms, .. } => {
                            shed += 1;
                            first_retry_hint.get_or_insert(retry_after_ms);
                        }
                        ref body if body.status() == WireStatus::Ok => ok += 1,
                        _ => other += 1,
                    }
                }
                (ok, shed, other, first_retry_hint)
            })
        })
        .collect();

    let (mut ok, mut shed, mut other) = (0, 0, 0);
    let mut retry_hint = None;
    for handle in handles {
        let (o, s, x, hint) = handle.join().expect("client thread");
        ok += o;
        shed += s;
        other += x;
        if retry_hint.is_none() {
            retry_hint = hint;
        }
    }
    let elapsed = started.elapsed();
    let total = CLIENTS as u64 * (POINTS_PER_CLIENT + JOINS_PER_CLIENT);
    println!(
        "\n{total} requests in {:.2}s ({:.0} req/s): {ok} completed, {shed} shed, {other} other",
        elapsed.as_secs_f64(),
        total as f64 / elapsed.as_secs_f64(),
    );
    if let Some(ms) = retry_hint {
        println!("first shed carried retry_after_ms = {ms} (§5-derived backpressure)");
    }

    // The serving families, scraped over the wire like any Prometheus
    // client would.
    let mut client = Client::connect(addr).expect("metrics connect");
    let reply = client.call(&WireRequest::metrics(0)).expect("metrics");
    let ResponseBody::Text(exposition) = reply.body else {
        panic!("metrics request must answer text");
    };
    println!("\n--- serving metrics (wire exposition extract) ---");
    for line in exposition.lines() {
        if [
            "msj_queue_depth",
            "msj_request_shed_total",
            "msj_conn_timeouts_total",
            "msj_connections",
            "msj_serve_batch_size_count",
            "msj_queue_wait_nanos{quantile",
        ]
        .iter()
        .any(|family| line.starts_with(family))
        {
            println!("{line}");
        }
    }

    server.shutdown();
    let report = server.join();
    println!("\ndrain report: {report:?}");

    let answered = ok + shed + other;
    if answered != total || !report.clean {
        eprintln!("FAIL: {answered}/{total} answered, clean={}", report.clean);
        std::process::exit(1);
    }
    println!("clean drain; every request answered exactly once");
}

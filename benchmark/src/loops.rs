//! The measured loops: in-process joins, the ingest/reopen cycle and the
//! wire traffic mix. Each runs for a duration, checks every answer it
//! gets, and records spans only when handed a tracer — the untimed-by-
//! spans run and the traced pass execute the same code.

use crate::host::HostSpeed;
use crate::trace::{SpanId, Tracer};
use crate::workload::{ProbePool, POINT_POOL, WINDOW_POOL};
use msj_core::{
    DatasetId, JoinConfig, MultiStepStats, Request, Response, SpatialEngine, StoreConfig,
};
use msj_geom::{fnv1a64, fnv1a64_update, Relation};
use msj_serve::{encode_response, response_body_for, Client, WireRequest};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where a loop records its spans: the tracer and the enclosing span.
pub type Trace<'a> = Option<(&'a Tracer, Option<SpanId>)>;

/// `fnv1a64` over the canonically sorted pairs.
pub fn pairs_digest(pairs: &[(u32, u32)]) -> u64 {
    let hash = |pairs: &[(u32, u32)]| {
        pairs.iter().fold(fnv1a64(&[]), |h, &(a, b)| {
            fnv1a64_update(fnv1a64_update(h, &a.to_le_bytes()), &b.to_le_bytes())
        })
    };
    if pairs.windows(2).all(|w| w[0] <= w[1]) {
        hash(pairs)
    } else {
        let mut sorted = pairs.to_vec();
        sorted.sort_unstable();
        hash(&sorted)
    }
}

pub fn join_request(a: DatasetId, b: DatasetId) -> Request {
    Request::Join {
        a,
        b,
        execution: None,
    }
}

/// Digest of one join through the public request surface; `None` on
/// any error.
pub fn join_digest(engine: &SpatialEngine, a: DatasetId, b: DatasetId) -> Option<u64> {
    match engine.submit(join_request(a, b)) {
        Ok(Response::Join(join)) => Some(pairs_digest(&join.pairs)),
        _ => None,
    }
}

#[derive(Default)]
pub struct JoinLoop {
    pub latency_ns: Vec<u64>,
    /// Digest of the first response; every later one must equal it.
    pub digest: Option<u64>,
    pub failed: u64,
}

/// One caller looping `submit(Request::Join)` until `duration` has
/// passed and at least `min_ops` joins ran. Digesting and the host-speed
/// sample happen between the timed calls.
pub fn join_loop(
    engine: &SpatialEngine,
    a: DatasetId,
    b: DatasetId,
    duration: Duration,
    min_ops: usize,
    mut host: Option<&mut HostSpeed>,
    trace: Trace<'_>,
) -> JoinLoop {
    let mut out = JoinLoop::default();
    let begin = Instant::now();
    while begin.elapsed() < duration || out.latency_ns.len() < min_ops {
        let rep = out.latency_ns.len() as u32;
        if let Some(host) = host.as_deref_mut() {
            host.sample_n(2);
        }
        let start = Instant::now();
        let result = std::hint::black_box(engine.submit(join_request(a, b)));
        let end = Instant::now();
        out.latency_ns.push((end - start).as_nanos() as u64);
        let Ok(Response::Join(join)) = result else {
            out.failed += 1;
            continue;
        };
        let digest = pairs_digest(&join.pairs);
        if *out.digest.get_or_insert(digest) != digest {
            out.failed += 1;
        }
        if let Some((tracer, parent)) = trace {
            record_join_span(tracer, parent, rep, start, end, &join.stats);
        }
    }
    out
}

/// The join's span plus its steps as children, laid end to end from the
/// public `JoinResponse.stats` (the engine reports step durations, not
/// intervals); what is left of the join span is the engine's self time.
fn record_join_span(
    tracer: &Tracer,
    parent: Option<SpanId>,
    rep: u32,
    start: Instant,
    end: Instant,
    stats: &MultiStepStats,
) {
    let (t0, t1) = (tracer.ns_of(start), tracer.ns_of(end));
    let join = tracer.record("core.join", t0, t1, parent, rep);
    let mut at = t0;
    for (name, nanos) in [
        ("core.step1", stats.step1_nanos),
        ("core.step2", stats.step2_nanos),
        ("core.step3", stats.step3_nanos),
    ] {
        let id = tracer.record(name, at, at + nanos, Some(join), rep);
        if name == "core.step2" {
            tracer.record("core.step2a", at, at + stats.step2a_nanos, Some(id), rep);
        }
        at += nanos;
    }
}

/// One selection through the public request surface, ids sorted; `None`
/// on any error.
fn selection_ids(engine: &SpatialEngine, request: Request) -> Option<Vec<u32>> {
    match engine.submit(request) {
        Ok(Response::Selection(sel)) => {
            let mut ids = sel.ids;
            ids.sort_unstable();
            Some(ids)
        }
        _ => None,
    }
}

/// The fixed probe set a reopened engine must answer like the engine
/// that wrote the store: 16 points and 16 windows against dataset 0.
pub fn fixed_probe_answers(engine: &SpatialEngine, pool: &ProbePool) -> Option<Vec<Vec<u32>>> {
    (0..16)
        .map(|i| pool.point_request(0, i))
        .chain((0..16).map(|i| pool.window_request(0, i)))
        .map(|request| selection_ids(engine, request))
        .collect()
}

pub fn answers_digest(answers: &[Vec<u32>]) -> u64 {
    answers.iter().fold(fnv1a64(&[]), |h, ids| {
        ids.iter().fold(
            fnv1a64_update(h, &(ids.len() as u64).to_le_bytes()),
            |h, id| fnv1a64_update(h, &id.to_le_bytes()),
        )
    })
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Reads every file under `dir` and checksums it: the floor under a cold
/// open (what `read + fnv1a64` alone costs on the same bytes).
pub fn read_checksum(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut paths: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    paths.iter().fold(0, |acc, path| {
        acc ^ if path.is_dir() {
            read_checksum(path)
        } else {
            std::fs::read(path).map_or(0, |bytes| fnv1a64(&bytes))
        }
    })
}

pub const OPENS_PER_CYCLE: usize = 20;

#[derive(Default)]
pub struct IngestLoop {
    /// One entry per cycle: registering every relation, persist included.
    pub register_ns: Vec<u64>,
    pub open_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Bytes under the store directory after a cycle's registers.
    pub store_bytes: u64,
    /// Digest of the fixed probe answers, equal on every cycle.
    pub digest: Option<u64>,
}

/// Cycles of: fresh engine with a store → register (timed) → drop →
/// `OPENS_PER_CYCLE` × `SpatialEngine::open` (each timed, the engine
/// dropped between) → wipe the directory. Flushing is the store's own
/// policy (tmp + rename + `sync_all`).
pub fn ingest_loop(
    relations: &[Arc<Relation>],
    dir: &Path,
    pool: &ProbePool,
    duration: Duration,
    mut host: Option<&mut HostSpeed>,
    trace: Trace<'_>,
) -> IngestLoop {
    let mut out = IngestLoop::default();
    let begin = Instant::now();
    let mut cycle = 0u32;
    while begin.elapsed() < duration || cycle == 0 {
        std::fs::remove_dir_all(dir).ok();
        out.attempted += 1;
        let Ok(writer) =
            SpatialEngine::new(JoinConfig::default()).with_store(StoreConfig::new(dir))
        else {
            out.failed += 1;
            break;
        };
        if let Some(host) = host.as_deref_mut() {
            host.sample_n(4);
        }
        let start = Instant::now();
        for relation in relations {
            std::hint::black_box(writer.register(relation.clone()));
        }
        let end = Instant::now();
        out.register_ns.push((end - start).as_nanos() as u64);
        if let Some((tracer, parent)) = trace {
            tracer.record(
                "store.register",
                tracer.ns_of(start),
                tracer.ns_of(end),
                parent,
                cycle,
            );
        }
        let written = fixed_probe_answers(&writer, pool);
        drop(writer);
        out.store_bytes = dir_bytes(dir);
        match &written {
            Some(answers) => {
                let digest = answers_digest(answers);
                if *out.digest.get_or_insert(digest) != digest {
                    out.failed += 1;
                }
            }
            None => out.failed += 1,
        }

        for k in 0..OPENS_PER_CYCLE {
            out.attempted += 1;
            if let Some(host) = host.as_deref_mut() {
                host.sample();
            }
            let start = Instant::now();
            let reopened = std::hint::black_box(SpatialEngine::open(
                JoinConfig::default(),
                StoreConfig::new(dir),
            ));
            let end = Instant::now();
            out.open_ns.push((end - start).as_nanos() as u64);
            if let Some((tracer, parent)) = trace {
                tracer.record(
                    "store.open",
                    tracer.ns_of(start),
                    tracer.ns_of(end),
                    parent,
                    cycle,
                );
            }
            let ok = match reopened {
                Ok(engine) if engine.num_datasets() == relations.len() => {
                    // Probing costs as much as an open here; the first
                    // reopen of a cycle answers for the other nineteen.
                    k > 0 || fixed_probe_answers(&engine, pool) == written
                }
                _ => false,
            };
            if !ok {
                out.failed += 1;
            }
        }
        cycle += 1;
    }
    if let Some((tracer, parent)) = trace {
        for rep in 0..5 {
            let sum = tracer.span("store.read_checksum_floor", parent, rep, |_| {
                read_checksum(dir)
            });
            std::hint::black_box(sum);
        }
        tracer.count("store.segment_bytes", out.store_bytes as f64, 0);
    }
    std::fs::remove_dir_all(dir).ok();
    out
}

/// Which datasets the wire mix addresses.
#[derive(Debug, Clone, Copy)]
pub struct WireTargets {
    pub probe: DatasetId,
    pub join_a: DatasetId,
    pub join_b: DatasetId,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Point(usize),
    Window(usize),
    Join,
}

impl Kind {
    /// Slot in the observed-digest table: points, then windows, then
    /// the join.
    fn slot(self) -> usize {
        match self {
            Kind::Point(i) => i,
            Kind::Window(i) => POINT_POOL + i,
            Kind::Join => POINT_POOL + WINDOW_POOL,
        }
    }
}

/// Request `i` of a connection: a join when `i % 500 == 499`, else a
/// window when `i % 5 == 4`, else a point.
fn kind_of(i: u64, rng: &mut StdRng) -> Kind {
    if i % 500 == 499 {
        Kind::Join
    } else if i % 5 == 4 {
        Kind::Window(rng.gen_range(0..WINDOW_POOL))
    } else {
        Kind::Point(rng.gen_range(0..POINT_POOL))
    }
}

fn wire_request(id: u64, kind: Kind, targets: WireTargets, pool: &ProbePool) -> WireRequest {
    match kind {
        Kind::Point(i) => {
            let (x, y) = pool.points[i];
            WireRequest::point(id, targets.probe, x, y)
        }
        Kind::Window(i) => WireRequest::window(id, targets.probe, pool.windows[i]),
        Kind::Join => WireRequest::join(id, targets.join_a, targets.join_b),
    }
}

fn engine_request(kind: Kind, targets: WireTargets, pool: &ProbePool) -> Request {
    match kind {
        Kind::Point(i) => pool.point_request(targets.probe, i),
        Kind::Window(i) => pool.window_request(targets.probe, i),
        Kind::Join => join_request(targets.join_a, targets.join_b),
    }
}

/// Bytes of a response frame before the payload that does not depend on
/// the request id: the `u32` length prefix and the `u64` id.
const FRAME_ID_END: usize = 12;

/// Digest of a response frame without its request id, so replies to the
/// same request compare equal whatever id they carried.
fn frame_digest(frame: &[u8]) -> u64 {
    fnv1a64(frame.get(FRAME_ID_END..).unwrap_or(&[]))
}

pub const CONNECTIONS: usize = 2;
pub const OUTSTANDING: usize = 16;
/// One probe span in this many is written to the trace (every join is).
const PROBE_SPAN_SAMPLING: u64 = 32;

#[derive(Default)]
pub struct WireLoop {
    pub probe_ns: Vec<u64>,
    pub join_ns: Vec<u64>,
    /// Replies received inside the measured window.
    pub replies: u64,
    pub measured: Duration,
    /// `(replies, length)` of each sub-window.
    pub window_replies: Vec<(u64, Duration)>,
    /// Requests sent over the whole loop, warm-up included.
    pub attempted: u64,
    pub failed: u64,
    /// Frame digest per distinct request seen (0 = never requested).
    observed: Vec<u64>,
}

struct ConnOut {
    probe_ns: Vec<u64>,
    join_ns: Vec<u64>,
    replies: u64,
    attempted: u64,
    failed: u64,
    observed: Vec<u64>,
    spans: Vec<(&'static str, Instant, Instant)>,
}

/// One connection's closed loop: `OUTSTANDING` requests in flight, a new
/// one sent for each reply, latency taken client-side from send to reply.
#[allow(clippy::too_many_arguments)]
fn drive_connection(
    addr: SocketAddr,
    conn: usize,
    seed: u64,
    targets: WireTargets,
    pool: &ProbePool,
    warmup: Duration,
    duration: Duration,
    traced: bool,
) -> std::io::Result<ConnOut> {
    let mut out = ConnOut {
        probe_ns: Vec::new(),
        join_ns: Vec::new(),
        replies: 0,
        attempted: 0,
        failed: 0,
        observed: vec![0; POINT_POOL + WINDOW_POOL + 1],
        spans: Vec::new(),
    };
    let mut client = Client::connect_with_timeout(addr, Duration::from_secs(30))?;
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(conn as u64));
    let mut in_flight: Vec<(u64, Instant, Kind)> = Vec::with_capacity(OUTSTANDING);
    let measure_from = Instant::now() + warmup;
    let measure_to = measure_from + duration;
    let mut next = 0u64;
    loop {
        let sending = Instant::now() < measure_to;
        while sending && in_flight.len() < OUTSTANDING {
            let kind = kind_of(next, &mut rng);
            let sent = Instant::now();
            client.send(&wire_request(next, kind, targets, pool))?;
            in_flight.push((next, sent, kind));
            out.attempted += 1;
            next += 1;
        }
        if in_flight.is_empty() {
            return Ok(out);
        }
        let reply = client.recv()?;
        let received = Instant::now();
        let Some(at) = in_flight.iter().position(|r| r.0 == reply.request_id) else {
            out.failed += 1;
            continue;
        };
        let (id, sent, kind) = in_flight.swap_remove(at);
        if !reply.body.is_ok() {
            out.failed += 1;
            continue;
        }
        let digest = frame_digest(&reply.frame).max(1);
        let seen = &mut out.observed[kind.slot()];
        if *seen == 0 {
            *seen = digest;
        } else if *seen != digest {
            out.failed += 1;
        }
        if sent >= measure_from && received < measure_to {
            out.replies += 1;
            let nanos = (received - sent).as_nanos() as u64;
            if kind == Kind::Join {
                out.join_ns.push(nanos);
                if traced {
                    out.spans.push(("wire.join", sent, received));
                }
            } else {
                out.probe_ns.push(nanos);
                if traced && id % PROBE_SPAN_SAMPLING == 0 {
                    out.spans.push(("wire.probe", sent, received));
                }
            }
        }
    }
}

/// Sub-windows a calibrated wire loop is cut into, with host-speed
/// samples taken while nothing is in flight between them.
const WIRE_WINDOWS: u32 = 10;

/// `CONNECTIONS` connections, one generator thread each, against a
/// running server. Replies are checked against each other while the
/// loop runs and against the in-process engine by [`verify_wire`] after.
#[allow(clippy::too_many_arguments)]
pub fn wire_loop(
    addr: SocketAddr,
    seed: u64,
    targets: WireTargets,
    pool: &ProbePool,
    warmup: Duration,
    duration: Duration,
    mut host: Option<&mut HostSpeed>,
    trace: Trace<'_>,
) -> WireLoop {
    let windows = if host.is_some() { WIRE_WINDOWS } else { 1 };
    let mut out = WireLoop {
        measured: duration,
        observed: vec![0; POINT_POOL + WINDOW_POOL + 1],
        ..WireLoop::default()
    };
    for window in 0..windows {
        if let Some(host) = host.as_deref_mut() {
            host.sample_n(16);
        }
        let warmup = if window == 0 { warmup } else { Duration::ZERO };
        let results: Vec<std::io::Result<ConnOut>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CONNECTIONS)
                .map(|conn| {
                    scope.spawn(move || {
                        drive_connection(
                            addr,
                            conn,
                            seed.wrapping_add(1_000 * u64::from(window)),
                            targets,
                            pool,
                            warmup,
                            duration / windows,
                            trace.is_some(),
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("wire generator thread panicked"))
                .collect()
        });
        let before = out.replies;
        for (conn, result) in results.into_iter().enumerate() {
            let Ok(conn_out) = result else {
                // A broken connection leaves its outstanding requests
                // unanswered.
                out.attempted += OUTSTANDING as u64;
                out.failed += OUTSTANDING as u64;
                continue;
            };
            out.probe_ns.extend(conn_out.probe_ns);
            out.join_ns.extend(conn_out.join_ns);
            out.replies += conn_out.replies;
            out.attempted += conn_out.attempted;
            out.failed += conn_out.failed;
            for (merged, seen) in out.observed.iter_mut().zip(conn_out.observed) {
                if *merged == 0 {
                    *merged = seen;
                } else if seen != 0 && seen != *merged {
                    out.failed += 1;
                }
            }
            if let Some((tracer, parent)) = trace {
                for (name, sent, received) in conn_out.spans {
                    tracer.record(
                        name,
                        tracer.ns_of(sent),
                        tracer.ns_of(received),
                        parent,
                        conn as u32,
                    );
                }
            }
        }
        out.window_replies
            .push((out.replies - before, duration / windows));
    }
    out
}

pub struct WireVerdict {
    pub mismatched: u64,
    /// Digest over the table of observed reply digests.
    pub digest: u64,
}

/// Every distinct request the wire loop saw answered, answered again by
/// the engine in-process and projected through `response_body_for`: the
/// frames must be identical.
pub fn verify_wire(
    engine: &SpatialEngine,
    targets: WireTargets,
    pool: &ProbePool,
    wire: &WireLoop,
) -> WireVerdict {
    let kinds = (0..POINT_POOL)
        .map(Kind::Point)
        .chain((0..WINDOW_POOL).map(Kind::Window))
        .chain([Kind::Join]);
    let mut mismatched = 0;
    let mut digest = fnv1a64(&[]);
    for kind in kinds {
        let observed = wire.observed[kind.slot()];
        digest = fnv1a64_update(digest, &observed.to_le_bytes());
        if observed == 0 {
            continue;
        }
        let result = engine.submit(engine_request(kind, targets, pool));
        let frame = encode_response(0, &response_body_for(&result));
        if result.is_err() || frame_digest(&frame).max(1) != observed {
            mismatched += 1;
        }
    }
    WireVerdict { mismatched, digest }
}

/// `samples` pool probes (four points to each window) answered
/// in-process and by a brute-force scan of the relation's exact
/// geometry; returns how many disagree.
pub fn brute_force_mismatches(
    engine: &SpatialEngine,
    dataset: DatasetId,
    relation: &Relation,
    pool: &ProbePool,
    samples: usize,
) -> u64 {
    let requests = (0..samples - samples / 5)
        .map(|i| pool.point_request(dataset, i))
        .chain((0..samples / 5).map(|i| pool.window_request(dataset, i)));
    let mut mismatched = 0;
    for request in requests {
        let mut expected: Vec<u32> = relation
            .iter()
            .filter(|object| match request {
                Request::Point { point, .. } => object.region.contains_point(point),
                Request::Window { window, .. } => {
                    msj_exact::window::region_intersects_rect_reference(&object.region, &window)
                }
                _ => false,
            })
            .map(|object| object.id)
            .collect();
        expected.sort_unstable();
        if selection_ids(engine, request) != Some(expected) {
            mismatched += 1;
        }
    }
    mismatched
}

/// In-process probes, one span each: the floor under the wire latency.
pub fn query_probes(
    engine: &SpatialEngine,
    dataset: DatasetId,
    pool: &ProbePool,
    tracer: &Tracer,
    parent: Option<SpanId>,
) {
    for i in 0..2_000 {
        let request = pool.point_request(dataset, i);
        let result = tracer.span("core.point_query", parent, i as u32, |_| {
            engine.submit(request)
        });
        std::hint::black_box(result.is_ok());
    }
    for i in 0..500 {
        let request = pool.window_request(dataset, i);
        let result = tracer.span("core.window_query", parent, i as u32, |_| {
            engine.submit(request)
        });
        std::hint::black_box(result.is_ok());
    }
}

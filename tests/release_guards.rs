//! The engine's five wall-clock guards.
//!
//! Each one bounds what a piece of always-on machinery may cost, as a
//! ratio of two timings taken back to back in this process:
//!
//! 1. observability on vs off on the fused ×4 join: < 3 %;
//! 2. fault hooks armed (never firing) vs disabled on the same join: < 1 %;
//! 3. a deadline at half the join's wall: median overshoot of five runs
//!    ≤ 2 × one batch;
//! 4. a cold [`SpatialEngine::open`] vs reading the same segment files
//!    and verifying them with the store's checksum: ≤ 2 ×;
//! 5. cross-request batching over the wire vs serial ping-pong: faster.
//!
//! A ratio binds only where the clock is signal: in an optimised build,
//! on a baseline above timer noise (≥ 20 ms for the joins, ≥ 10 ms for
//! the fault-hook guard's 768-pair median, ≥ 1 ms for the store floor).
//! Ratios are taken per pair — both sides back to back, so a load spike
//! inflates both and cancels. The two overhead guards, whose budgets sit
//! inside the spread between engine instances, take the median pair over
//! many fresh engines; the cold-open guard takes the fastest of a few
//! runs per side, and the deadline guard, which times one run and not a
//! ratio, the median of five runs. A debug build runs each workload
//! once, at a tenth of the size, keeps the assertions that are not about
//! time, and only reports the ratio.
//!
//! Run as CI does, `--release -- --test-threads=1` (`--nocapture` shows
//! every reading): timed multi-threaded joins must not share the cores.

use msj::core::{
    CancelToken, EngineConfig, EngineError, Execution, FaultConfig, FaultKind, JoinConfig,
    ObsConfig, PreparedJoin, Request, Response, SpatialEngine, StoreConfig, DEFAULT_BATCH_PAIRS,
};
use msj::geom::Relation;
use msj::serve::{Client, ServeConfig, Server, WireRequest, WireStatus};
use std::sync::Arc;
use std::time::{Duration, Instant};

const OPTIMISED: bool = !cfg!(debug_assertions);

/// Objects per relation of the join workload.
const OBJECTS: usize = if OPTIMISED { 10_000 } else { 1_000 };

/// Runs per side of the cold-open ratio; the fastest counts.
const ROUNDS: usize = if OPTIMISED { 3 } else { 1 };

/// Below this baseline the deadline guard's overshoot is timer noise.
const JOIN_BASELINE_SECS: f64 = 0.020;

const THREADS: usize = 4;
const FUSED: Execution = Execution::Fused { threads: THREADS };
const SEED: u64 = 1;

/// The skewed cartographic pair every join guard runs on.
fn skewed_pair() -> (Arc<Relation>, Arc<Relation>) {
    (
        Arc::new(msj::datagen::skewed_carto(OBJECTS, 24.0, SEED)),
        Arc::new(msj::datagen::skewed_carto(OBJECTS, 24.0, SEED + 1)),
    )
}

/// Step 0 on a fresh engine: the owned prepared join of the pair.
fn prepare(
    config: impl Into<EngineConfig>,
    a: &Arc<Relation>,
    b: &Arc<Relation>,
) -> Arc<PreparedJoin> {
    let engine = SpatialEngine::new(config);
    let (ha, hb) = (engine.register(a.clone()), engine.register(b.clone()));
    engine.prepare_join(&ha, &hb)
}

/// Registers the pair on `engine`; the join request over it.
fn register_join(engine: &SpatialEngine, a: Arc<Relation>, b: Arc<Relation>) -> Request {
    let (a, b) = (engine.register(a).id(), engine.register(b).id());
    let execution = None;
    Request::Join { a, b, execution }
}

fn secs(run: impl FnOnce()) -> f64 {
    let start = Instant::now();
    run();
    start.elapsed().as_secs_f64()
}

/// The fastest of `runs` runs, each returning its own wall-clock.
fn fastest(runs: usize, mut run: impl FnMut() -> f64) -> f64 {
    (0..runs).map(|_| run()).fold(f64::INFINITY, f64::min)
}

/// Prints the reading, then holds it to the guard where the guard binds
/// (an optimised build and a `baseline` of at least `noise` seconds).
fn verdict(baseline: f64, noise: f64, holds: bool, reading: String) {
    println!("{reading}");
    assert!(!OPTIMISED || baseline < noise || holds, "{reading}");
}

/// `(rounds, pairs per round)` of an overhead guard's timed joins: two
/// engines built alike differ by ≈ 2 % in join wall-clock, so a guard
/// needs many engines, not many runs of a few. The observability guard's
/// 3 % budget holds over 12 engine pairs. The fault hooks' 1 % budget on
/// the same fused ×4 join needs 768 pairs over 32: on a 2-vCPU host one
/// pair's ratio has an interquartile range of 6–15 %.
const OBS_PAIRS: (usize, usize) = if OPTIMISED { (12, 4) } else { (1, 1) };
const FAULT_PAIRS: (usize, usize) = if OPTIMISED { (32, 24) } else { (1, 1) };

/// The overhead guards' floor. Their median of many pairs, not the
/// length of one join, holds their noise down, so they bind on joins
/// shorter than [`JOIN_BASELINE_SECS`]: a quiet 2-vCPU host runs the
/// fused ×4 join in ≈ 18 ms.
const PAIRED_BASELINE_SECS: f64 = 0.010;

/// `(median on/off pair ratio − 1, fastest off, fastest on)`. Per round,
/// a fresh engine per side (`prepare(on)`: Step 0 and one warm-up join),
/// then `pairs` pairs of timed joins (`run(side, on)`), off and on back
/// to back. Which side goes first alternates, for the engines' builds as
/// for each pair's joins, so the box's drift and the ≈ 0.5 % edge of the
/// engine built second land on both sides alike. The median over every
/// round counts: one stalled run or one engine pair's layout moves it
/// little either way.
fn median_pair_overhead<T>(
    (rounds, pairs): (usize, usize),
    prepare: impl Fn(bool) -> T,
    run: impl Fn(&T, bool),
) -> (f64, f64, f64) {
    let time = |side: &T, on: bool| secs(|| run(side, on));
    let (mut ratios, mut off, mut on) = (Vec::new(), f64::INFINITY, f64::INFINITY);
    for round in 0..rounds {
        let (p_off, p_on) = if round % 2 == 0 {
            (prepare(false), prepare(true))
        } else {
            let p_on = prepare(true);
            (prepare(false), p_on)
        };
        for _ in 0..pairs {
            let (t_off, t_on) = if ratios.len() % 2 == 0 {
                (time(&p_off, false), time(&p_on, true))
            } else {
                let t_on = time(&p_on, true);
                (time(&p_off, false), t_on)
            };
            ratios.push(t_on / t_off);
            (off, on) = (off.min(t_off), on.min(t_on));
        }
    }
    ratios.sort_by(f64::total_cmp);
    (ratios[ratios.len() / 2] - 1.0, off, on)
}

#[test]
fn observability_costs_under_three_percent() {
    let (a, b) = skewed_pair();
    let run = |prepared: &Arc<PreparedJoin>, _| drop(prepared.run_with(FUSED));
    let (overhead, off, on) = median_pair_overhead(
        OBS_PAIRS,
        |on| {
            let obs = if on {
                ObsConfig::default()
            } else {
                ObsConfig::disabled()
            };
            let prepared = prepare(
                EngineConfig {
                    obs,
                    ..EngineConfig::default()
                },
                &a,
                &b,
            );
            run(&prepared, on);
            prepared
        },
        run,
    );
    let reading = format!(
        "observability overhead {:.2}% vs the 3% budget, median of {} pairs \
         (fastest metrics on {:.2} ms, off {:.2} ms)",
        overhead * 100.0,
        OBS_PAIRS.0 * OBS_PAIRS.1,
        on * 1e3,
        off * 1e3,
    );
    verdict(off, PAIRED_BASELINE_SECS, overhead < 0.03, reading);
}

/// The armed run (a live token polled every batch, an enabled plan that
/// never fires) does a strict superset of the disabled run's work, so the
/// ratio upper-bounds what the disabled hooks can cost. The join is the
/// fused ×4 one, so the four sinks contend for the plan's shared batch
/// counter and poll the token together.
#[test]
fn armed_but_silent_fault_hooks_cost_under_one_percent() {
    let (a, b) = skewed_pair();
    let config = JoinConfig::builder().execution(FUSED).build();
    let never = FaultConfig::seeded(SEED, FaultKind::CancelAtBatch { batch: u32::MAX });
    let run = |prepared: &Arc<PreparedJoin>, armed: bool| {
        if armed {
            let token = CancelToken::new();
            let response = prepared.try_run_with(FUSED, Some(&token));
            drop(response.expect("armed plan never fires"));
        } else {
            drop(prepared.run_with(FUSED));
        }
    };
    let (overhead, off, on) = median_pair_overhead(
        FAULT_PAIRS,
        |armed| {
            let mut engine = EngineConfig::from(config);
            if armed {
                engine.fault = never;
            }
            let prepared = prepare(engine, &a, &b);
            run(&prepared, armed);
            prepared
        },
        run,
    );
    let reading = format!(
        "fault-hook overhead {:.2}% vs the 1% budget, median of {} pairs \
         (fastest armed {:.2} ms, disabled {:.2} ms)",
        overhead * 100.0,
        FAULT_PAIRS.0 * FAULT_PAIRS.1,
        on * 1e3,
        off * 1e3,
    );
    verdict(off, PAIRED_BASELINE_SECS, overhead < 0.01, reading);
}

/// Deadline runs of the deadline guard; the median overshoot counts.
const DEADLINE_RUNS: usize = 5;

/// Cancellation is cooperative at batch boundaries, so a blown deadline
/// may be noticed up to one batch per worker late. One scheduling stall
/// of a 2-vCPU host can hold a single run several milliseconds past
/// that, so the median of [`DEADLINE_RUNS`] runs is held to the bound: a
/// stall in one run moves it little, a late cancellation check moves
/// every run.
#[test]
fn deadline_overshoot_stays_within_two_batches() {
    let (a, b) = skewed_pair();
    let engine = SpatialEngine::new(JoinConfig::builder().execution(FUSED).build());
    let request = register_join(&engine, a, b);
    let _ = engine.submit(request); // warm: Step 0 + run history
    let mut clean = None;
    let clean_secs = fastest(3, || secs(|| clean = Some(engine.submit(request))));
    let Some(Ok(Response::Join(clean))) = clean else {
        panic!("fault-free join failed");
    };
    let batches = clean
        .stats
        .mbr_join
        .candidates
        .div_ceil(DEFAULT_BATCH_PAIRS as u64)
        .max(1);
    // One batch on one worker: the fused total is `batches` batches
    // spread over `THREADS` lanes.
    let batch_secs = clean_secs / batches as f64 * THREADS as f64;

    // Half the §5 estimate, capped by the measured wall: the model prices
    // work in the paper's cost units, which can sit far above wall-clock,
    // and the deadline must be one the join can actually blow.
    let deadline_secs = 0.5 * clean.admission.estimated_s.min(clean_secs);
    let mut overshoots: Vec<f64> = (0..DEADLINE_RUNS)
        .map(|_| {
            let token = CancelToken::with_deadline(Duration::from_secs_f64(deadline_secs));
            let start = Instant::now();
            let outcome = engine.submit_with_cancel(request, &token);
            let overshoot = (start.elapsed().as_secs_f64() - deadline_secs).max(0.0);
            assert!(
                matches!(outcome, Err(EngineError::DeadlineExceeded { .. })),
                "deadline at 50% of the clean wall must trip, got {outcome:?}"
            );
            overshoot
        })
        .collect();
    let runs_ms: Vec<f64> = overshoots.iter().map(|o| o * 1e3).collect();
    overshoots.sort_by(f64::total_cmp);
    let overshoot = overshoots[DEADLINE_RUNS / 2];
    let bound = (2.0 * batch_secs).max(0.001);
    let reading = format!(
        "deadline overshoot {:.3} ms, the median of {runs_ms:.1?} ms, vs the bound of 2 x one batch = {:.3} ms",
        overshoot * 1e3,
        bound * 1e3,
    );
    verdict(clean_secs, JOIN_BASELINE_SECS, overshoot <= bound, reading);
}

/// The store is priced against what a store can be at best — reading its
/// files and verifying them with the store's own checksum — not against
/// the rebuild it replaces (that guard would fail whenever Step 0 got
/// cheaper). An open maps its segments instead of reading them, and the
/// TR* arena, three quarters of a dataset segment, is adopted where it
/// lies, so what lies above the checksums is validating the relation and
/// the arena and decoding the R*-tree: 0.73–1.43 × the floor, median
/// 1.17, over 110 readings on a 2-vCPU host in both of its scheduling
/// states. 2 × keeps the head-room the old 4.5 × bound had over the
/// 3.3 × of an open that read its files, and fails such an open
/// (1.70–4.03 ×, median 2.80; 108 of 110 readings over 2) as well as one
/// that builds the TR* arena
/// (8.3–11.3 × before segments were mapped). It cannot catch a rebuilt
/// R*-tree (bulk loading costs ≈ 0.2 × the floor, inside the spread of a
/// clean open).
#[test]
fn cold_open_stays_within_two_read_and_checksum_floors() {
    let (a, b) = skewed_pair();
    let config = JoinConfig::default();
    let dir = std::env::temp_dir().join(format!("msj-release-guards-{}", std::process::id()));
    let join = {
        let writer = SpatialEngine::new(config)
            .with_store(StoreConfig::new(&dir))
            .expect("arm store");
        let join = register_join(&writer, a, b);
        // The join also writes the pair raster segment.
        writer.submit(join).expect("write-through join");
        join
    };

    let open = fastest(ROUNDS, || {
        let start = Instant::now();
        let reopened = SpatialEngine::open(config, StoreConfig::new(&dir)).expect("cold start");
        let open = start.elapsed().as_secs_f64();
        reopened.submit(join).expect("the reopened engine answers");
        open
    });
    // The floor: all a cold open would have to do if the files were the
    // resident layout.
    let read_and_checksum = || {
        for entry in std::fs::read_dir(&dir).expect("list store dir") {
            let bytes = std::fs::read(entry.expect("entry").path()).expect("read segment file");
            std::hint::black_box(msj::geom::checksum(&bytes));
        }
    };
    let floor = fastest(ROUNDS, || secs(read_and_checksum));
    std::fs::remove_dir_all(&dir).ok();

    let ratio = open / floor.max(1e-12);
    let reading = format!(
        "cold open {:.1} ms is {ratio:.2}x reading and checksumming its files ({:.1} ms) vs the 2x bound",
        open * 1e3,
        floor * 1e3,
    );
    verdict(floor, 0.001, ratio <= 2.0, reading);
}

/// Sends `requests` pipelined on one connection and collects one reply
/// each; the roomy server must complete them all.
fn drive(addr: std::net::SocketAddr, requests: &[WireRequest]) {
    let mut client = Client::connect_with_timeout(addr, Duration::from_secs(60)).expect("connect");
    for request in requests {
        client.send(request).expect("send");
    }
    for _ in requests {
        let reply = client.recv().expect("every request gets a reply");
        assert_eq!(
            reply.body.status(),
            WireStatus::Ok,
            "the roomy server must not refuse"
        );
    }
}

/// Eight pipelining connections let the server coalesce co-queued probes
/// into shared tree descents; one connection with one request outstanding
/// cannot.
#[test]
fn cross_request_batching_beats_serial_serving_over_the_wire() {
    const CONNECTIONS: usize = 8;
    let queries: usize = if OPTIMISED { 1_000 } else { 200 };
    let engine = Arc::new(SpatialEngine::new(JoinConfig::default()));
    let dataset = engine
        .register(msj::datagen::small_carto(OBJECTS / 5, 8.0, SEED))
        .id();
    let points: Vec<WireRequest> = (0..queries)
        .map(|i| {
            let t = (i as f64 + 0.5) / queries as f64;
            WireRequest::point(i as u64, dataset, t, 1.0 - t)
        })
        .collect();
    let server = Server::start(
        engine,
        ServeConfig {
            workers: 2,
            queue_bound: 8_192,
            batch_max: 32,
            conn_inflight_cap: 8_192,
            ..ServeConfig::default()
        },
    )
    .expect("roomy server");
    let addr = server.addr();

    // Serial: ping-pong after a short warm-up that pays the lazy
    // per-dataset costs outside the timed window.
    let mut client = Client::connect_with_timeout(addr, Duration::from_secs(60)).expect("connect");
    let mut call = |request: &WireRequest| {
        let reply = client.call(request).expect("serial call");
        assert_eq!(reply.body.status(), WireStatus::Ok);
    };
    points.iter().take(4).for_each(&mut call);
    let serial_secs = secs(|| points.iter().for_each(&mut call));
    drop(client);

    let batched_secs = secs(|| {
        std::thread::scope(|scope| {
            for chunk in points.chunks(queries.div_ceil(CONNECTIONS)) {
                scope.spawn(move || drive(addr, chunk));
            }
        })
    });
    server.shutdown();
    assert!(server.join().clean, "the roomy server drains cleanly");

    let reading = format!(
        "cross-request batching must beat serial serving: batched {:.0} qps is {:.2}x serial {:.0} qps",
        queries as f64 / batched_secs,
        serial_secs / batched_secs,
        queries as f64 / serial_secs,
    );
    verdict(serial_secs, 0.0, batched_secs < serial_secs, reading);
}

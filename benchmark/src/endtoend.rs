//! The untimed-by-spans run of one workload: set-up (several times, the
//! median is reported), warm-up, the measured phase, peak memory, and
//! only then the correctness oracle. Times are reported at reference
//! host speed (see `host.rs`), the measured values beside them.

use crate::host::{HostSpeed, REFERENCE_MS};
use crate::loops::{
    brute_force_mismatches, ingest_loop, join_digest, join_loop, join_request, pairs_digest,
    verify_wire, wire_loop, WireTargets, OPENS_PER_CYCLE,
};
use crate::metrics::{Measured, Outcome};
use crate::stats::{highest_supported_percentile, median, median_rate, quantile};
use crate::workload::{generate, probe_pool, Inputs, Workload};
use msj_core::{Backend, JoinConfig, Response, SpatialEngine};
use msj_geom::fnv1a64_update;
use msj_serve::{ServeConfig, Server};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Whether another set-up is due: `SETUP_REPS` of them, and more while
/// they are so short (data generation alone) that three say little.
fn more_setups(done: usize, since: Instant) -> bool {
    done < SETUP_REPS || (done < 30 && since.elapsed() < Duration::from_millis(500))
}
/// Host-speed samples before and after each set-up. A set-up is one long
/// call, so its samples can only bracket it, not interleave with it.
const SETUP_HOST_SAMPLES: usize = 16;
/// Slices of the measured phase whose median rate is `ops_per_s`.
const RATE_SLICES: usize = 10;
/// Joins discarded before the measured phase (the first one included).
const WARMUP_JOINS: usize = 3;

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn ms(nanos: &[u64]) -> Vec<f64> {
    nanos.iter().map(|&n| n as f64 / 1e6).collect()
}

/// An independent answer to the join: partitioned-sweep Step 1, no
/// Step 2, plane-sweep Step 3 — no code path shared with the default
/// configuration beyond the geometry predicates.
pub fn oracle_join_digest(inputs: &Inputs) -> Option<u64> {
    let config = JoinConfig::version1()
        .to_builder()
        .backend(Backend::PartitionedSweep {
            tiles_per_axis: 8,
            threads: 1,
        })
        .build();
    let oracle = SpatialEngine::new(config);
    let a = oracle.register(inputs.a.clone()).id();
    let b = oracle.register(inputs.b.clone()).id();
    join_digest(&oracle, a, b)
}

/// What a workload measured, before calibration.
struct Phase {
    setup_s: Vec<f64>,
    op_ms: Vec<f64>,
    rare_op_ms: Vec<f64>,
    ops_per_s: f64,
    /// Host speed while setting up and during the measured phase.
    setup_host: HostSpeed,
    measured_host: HostSpeed,
    peak_rss_mb: f64,
    attempted: u64,
    failed: u64,
    digest: u64,
}

pub fn run(workload: Workload, seed: u64, seconds: f64, scale: f64, out_dir: &Path) -> Outcome {
    let duration = Duration::from_secs_f64(seconds);
    let phase = match workload {
        Workload::JoinRefineHeavy | Workload::JoinFilterHeavy => {
            run_join(workload, seed, duration, scale)
        }
        Workload::IngestReopen => run_ingest(seed, duration, scale, out_dir),
        Workload::WireMixed => run_wire(seed, duration, scale),
    };
    let (setup_slowdown, slowdown) = (phase.setup_host.slowdown(), phase.measured_host.slowdown());
    let (setup_s, op_ms, rare_op_ms) = (
        median(&phase.setup_s),
        median(&phase.op_ms),
        median(&phase.rare_op_ms),
    );
    let mut notes = vec![
        format!(
            "op = {}; rare_op = {}",
            workload.ops().op,
            workload.ops().rare_op
        ),
        format!(
            "host slowdown: set-up x{setup_slowdown:.3} ({} samples), measured phase x{slowdown:.3} \
             ({} samples) of the {REFERENCE_MS} ms calibration kernel; times below = measured / slowdown",
            phase.setup_host.samples(),
            phase.measured_host.samples()
        ),
        format!(
            "as measured: setup_s {setup_s} s, op_ms_p50 {op_ms} ms, ops_per_s {} 1/s; rare op {rare_op_ms} \
             ms (median of {})",
            phase.ops_per_s,
            phase.rare_op_ms.len()
        ),
    ];
    if let Some((label, q)) = highest_supported_percentile(phase.op_ms.len()) {
        notes.push(format!(
            "as measured: op_ms {label} = {} ms (highest percentile with >= 10 of the {} samples \
             beyond it)",
            quantile(&phase.op_ms, q),
            phase.op_ms.len()
        ));
    }
    let measured = |name, value, samples| Measured {
        name,
        value,
        samples,
    };
    Outcome {
        attempted: phase.attempted,
        failed: phase.failed,
        metrics: vec![
            measured("setup_s", setup_s / setup_slowdown, phase.setup_s.len()),
            measured("op_ms_p50", op_ms / slowdown, phase.op_ms.len()),
            measured("ops_per_s", phase.ops_per_s * slowdown, phase.op_ms.len()),
            measured("peak_rss_mb", phase.peak_rss_mb, 1),
        ],
        as_measured: vec![
            ("setup_s", setup_s),
            ("op_ms_p50", op_ms),
            ("rare_op_ms_p50", rare_op_ms),
            ("ops_per_s", phase.ops_per_s),
            ("host_slowdown_setup", setup_slowdown),
            ("host_slowdown_measured", slowdown),
        ],
        response_digest: phase.digest,
        notes,
    }
}

/// A resident engine, one caller looping `submit(Request::Join)`.
fn run_join(workload: Workload, seed: u64, duration: Duration, scale: f64) -> Phase {
    let mut setup_s = Vec::new();
    let mut cold_join_ms = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut setup_host, mut measured_host) = (HostSpeed::new(), HostSpeed::new());
    let mut resident = None;
    let begin = Instant::now();
    while more_setups(setup_s.len(), begin) {
        // Free the previous engine first, so peak memory is one engine's.
        drop(resident.take());
        setup_host.sample_n(SETUP_HOST_SAMPLES);
        let start = Instant::now();
        let inputs = generate(workload, seed, scale);
        let engine = SpatialEngine::new(JoinConfig::default());
        let a = engine.register(inputs.a.clone());
        let b = engine.register(inputs.b.clone());
        let cold = Instant::now();
        std::hint::black_box(engine.prepare_join(&a, &b));
        setup_s.push(start.elapsed().as_secs_f64());
        let first = std::hint::black_box(engine.submit(join_request(a.id(), b.id())));
        cold_join_ms.push(cold.elapsed().as_secs_f64() * 1e3);
        attempted += 1;
        let digest = match first {
            Ok(Response::Join(join)) => Some(pairs_digest(&join.pairs)),
            _ => None,
        };
        failed += u64::from(digest.is_none());
        setup_host.sample_n(SETUP_HOST_SAMPLES);
        resident = Some((inputs, engine, a.id(), b.id(), digest));
    }
    let (inputs, engine, a, b, first_digest) = resident.expect("SETUP_REPS > 0");

    let warmup = join_loop(&engine, a, b, Duration::ZERO, WARMUP_JOINS - 1, None, None);
    let measured = join_loop(&engine, a, b, duration, 20, Some(&mut measured_host), None);
    let peak = peak_rss_mb();

    attempted += (warmup.latency_ns.len() + measured.latency_ns.len()) as u64;
    failed += warmup.failed + measured.failed;
    let oracle = oracle_join_digest(&inputs);
    attempted += 1;
    if oracle.is_none()
        || [first_digest, warmup.digest, measured.digest]
            .iter()
            .any(|d| *d != oracle)
    {
        failed += 1;
    }
    let slice = measured.latency_ns.len().div_ceil(RATE_SLICES);
    Phase {
        setup_s,
        ops_per_s: median_rate(
            measured
                .latency_ns
                .chunks(slice)
                .map(|joins| (joins.len(), joins.iter().sum())),
        ),
        op_ms: ms(&measured.latency_ns),
        rare_op_ms: cold_join_ms,
        setup_host,
        measured_host,
        peak_rss_mb: peak,
        attempted,
        failed,
        digest: measured.digest.unwrap_or(0),
    }
}

/// Register-with-store then cold opens, in cycles. Set-up is data
/// generation only: Step 0 is what this workload measures.
fn run_ingest(seed: u64, duration: Duration, scale: f64, out_dir: &Path) -> Phase {
    let mut setup_s = Vec::new();
    let (mut setup_host, mut measured_host) = (HostSpeed::new(), HostSpeed::new());
    let mut made = None;
    let begin = Instant::now();
    while more_setups(setup_s.len(), begin) {
        setup_host.sample_n(SETUP_HOST_SAMPLES);
        let start = Instant::now();
        made = Some((
            generate(Workload::IngestReopen, seed, scale),
            probe_pool(seed),
        ));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let (inputs, pool) = made.expect("SETUP_REPS > 0");
    let dir = out_dir.join("store-ingest_reopen");
    let measured = ingest_loop(
        std::slice::from_ref(&inputs.a),
        &dir,
        &pool,
        duration,
        Some(&mut measured_host),
        None,
    );
    let peak = peak_rss_mb();
    Phase {
        setup_s,
        // One slice per cycle: a register and its cold opens.
        ops_per_s: median_rate(
            measured
                .register_ns
                .iter()
                .zip(measured.open_ns.chunks(OPENS_PER_CYCLE))
                .map(|(register, opens)| (1 + opens.len(), register + opens.iter().sum::<u64>())),
        ),
        op_ms: ms(&measured.open_ns),
        rare_op_ms: ms(&measured.register_ns),
        setup_host,
        measured_host,
        peak_rss_mb: peak,
        attempted: measured.attempted,
        failed: measured.failed,
        digest: measured.digest.unwrap_or(0),
    }
}

/// A served engine as [`run_wire`] sets it up.
struct Served {
    inputs: Inputs,
    engine: Arc<SpatialEngine>,
    server: Server,
    targets: WireTargets,
}

/// Registers the workload's relations (`a`, `b`, then the probe target
/// unless it is `a`), prepares the join and starts the server.
fn serve(inputs: Inputs) -> std::io::Result<Served> {
    let engine = Arc::new(SpatialEngine::new(JoinConfig::default()));
    let a = engine.register(inputs.a.clone());
    let b = engine.register(inputs.b.clone());
    let probe = if inputs.probe_is_a() {
        a.id()
    } else {
        engine.register(inputs.probe.clone()).id()
    };
    std::hint::black_box(engine.prepare_join(&a, &b));
    let server = Server::start(engine.clone(), ServeConfig::default())?;
    Ok(Served {
        inputs,
        engine,
        server,
        targets: WireTargets {
            probe,
            join_a: a.id(),
            join_b: b.id(),
        },
    })
}

/// Shuts the server down and waits for its threads; `false` when the
/// drain was not clean.
pub fn stop(server: Server) -> bool {
    server.shutdown();
    server.join().clean
}

/// Two connections of mixed probes and joins against an in-process
/// server.
fn run_wire(seed: u64, duration: Duration, scale: f64) -> Phase {
    let mut setup_s = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut setup_host, mut measured_host) = (HostSpeed::new(), HostSpeed::new());
    let mut resident: Option<Served> = None;
    let begin = Instant::now();
    while more_setups(setup_s.len(), begin) {
        if let Some(previous) = resident.take() {
            failed += u64::from(!stop(previous.server));
        }
        setup_host.sample_n(SETUP_HOST_SAMPLES);
        let start = Instant::now();
        let served = serve(generate(Workload::WireMixed, seed, scale))
            .expect("binding a loopback port for the in-process server");
        setup_s.push(start.elapsed().as_secs_f64());
        setup_host.sample_n(SETUP_HOST_SAMPLES);
        resident = Some(served);
    }
    let served = resident.expect("SETUP_REPS > 0");
    let pool = probe_pool(seed);

    let warmup = Duration::from_secs_f64((duration.as_secs_f64() * 0.2).min(2.0));
    let wire = wire_loop(
        served.server.addr(),
        seed,
        served.targets,
        &pool,
        warmup,
        duration,
        Some(&mut measured_host),
        None,
    );
    let peak = peak_rss_mb();

    attempted += wire.attempted;
    failed += wire.failed;
    let verdict = verify_wire(&served.engine, served.targets, &pool, &wire);
    failed += verdict.mismatched;
    attempted += 100;
    failed += brute_force_mismatches(
        &served.engine,
        served.targets.probe,
        &served.inputs.probe,
        &pool,
        100,
    );
    failed += u64::from(!stop(served.server));
    // The join pair gets the same independent oracle as the join
    // workloads; its wire replies were already held to the in-process
    // answer above.
    attempted += 1;
    let in_process = join_digest(&served.engine, served.targets.join_a, served.targets.join_b);
    if in_process.is_none() || in_process != oracle_join_digest(&served.inputs) {
        failed += 1;
    }
    Phase {
        setup_s,
        ops_per_s: median_rate(
            wire.window_replies
                .iter()
                .map(|&(replies, window)| (replies as usize, window.as_nanos() as u64)),
        ),
        op_ms: ms(&wire.probe_ns),
        rare_op_ms: ms(&wire.join_ns),
        setup_host,
        measured_host,
        peak_rss_mb: peak,
        attempted,
        failed,
        digest: fnv1a64_update(verdict.digest, &in_process.unwrap_or(0).to_le_bytes()),
    }
}

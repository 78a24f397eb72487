//! Machine-readable benchmark output (`repro --json <path>`).
//!
//! Measures the batched hot path and the resident serving surface on the
//! skewed cartographic workload — the PR-3/PR-4/PR-5 acceptance matrix —
//! and emits one JSON document:
//!
//! * **Step 1** (`"step1"` records): candidates/sec per backend (index
//!   construction + candidate streaming);
//! * **Steps 1–3** (`"join"` records): pairs/sec and filter throughput
//!   per backend × execution mode on a resident
//!   [`msj_core::SpatialEngine`], including the preserved
//!   collect-then-chunk baseline and the per-pair (`batch=1`) protocol;
//! * **Step 2a** (`"raster"` records): the raster pre-filter swept over
//!   `grid_bits` ∈ {off, auto, 6, 8, 10} — decided fraction, hit/drop/
//!   inconclusive counts, stage time;
//! * **Serving** (`"serving"` records): per-query latency and
//!   queries/sec of point/window/join traffic against the resident
//!   engine versus paying Step-0 preparation per query, with FNV
//!   response digests asserted equal between the two paths — resident
//!   cells additionally report p50/p90/p99 latency from the engine's
//!   own request-latency histograms;
//! * **Observability** (the top-level `"obs"` object): the engine's
//!   schema-versioned metrics snapshot after a fixed request mix, plus
//!   the always-on overhead guard — the same fused join timed with
//!   metrics on vs [`msj_core::ObsConfig::disabled`], asserted < 3%
//!   whenever the baseline is large enough to be signal;
//! * the agreement verdict: every measured cell must produce the
//!   identical canonically sorted response set.
//!
//! Throughput fields are **omitted** when the corresponding stage did
//! not run in a cell (schema `msj-bench-pr10`; earlier schemas emitted a
//! misleading `0`). Since PR 7 the document also carries the `kernels`
//! section: the vectorized hot-path kernels (sweep / MER-accept)
//! measured per dispatch path, scalar vs wide, with
//! cross-path output digests asserted equal. Since PR 8 the top-level
//! `"robustness"` object reports the failure story: the time-to-error of
//! a join issued with a deadline at 50% of its §5 estimate (overshoot
//! bounded by 2× one batch's wall-clock) and the overhead of the
//! fault-injection hooks, upper-bounded by an armed-but-never-firing run
//! against the disabled default and asserted < 1% on the fused ×4 join.
//! Since PR 9 the top-level `"serving_load"` object measures the network
//! front: serial vs 8-connection batched point throughput over a live
//! `msj-serve` socket (the batched speedup asserted > 1), queue-wait and
//! end-to-end percentiles from the serving histograms, and an overload
//! flood past 2× a tiny queue bound where every response is either a
//! byte-identical completed answer or an explicit refusal. Since PR 10
//! the top-level `"cold_start"` object measures the persistent Step-0
//! store: rebuild vs segment-load wall-clock (total and per section),
//! store file sizes, and the asserted digest equality between the
//! rebuilt and the reloaded engine (the guard — cold open ≤ 3× the
//! read + checksum floor of the same files — is enforced whenever that
//! floor is above timer noise).
//!
//! No serde in this workspace (offline vendored deps only), so the JSON
//! is emitted by hand — flat records, numbers and strings only.

use crate::baseline::PreparedBaseline;
use crate::experiments::kernels::{measure_kernels, KernelCell};
use crate::experiments::raster::{resolved_grid_bits, response_digest, SWEEP};
use crate::experiments::robustness::measure_robustness;
use crate::experiments::serving::{serving_queries, SERVING_JOIN_RUNS, SERVING_PREPARE_QUERIES};
use crate::experiments::serving_load::{measure_serving_load, LOAD_CLIENTS, OVERLOAD_QUEUE_BOUND};
use crate::experiments::ExpConfig;
use crate::timing::timed;
use msj_core::{join_source, Backend, Execution, JoinConfig, JoinResult, ObsConfig, SpatialEngine};
use msj_geom::{ObjectId, Relation};
use std::sync::Arc;
use std::time::Instant;

/// Step-2a cell payload of a `"raster"` record.
struct RasterCell {
    grid_bits: u32,
    hits: u64,
    drops: u64,
    inconclusive: u64,
    decided_fraction: f64,
    step2a_millis: f64,
}

/// Serving-cell payload of a `"serving"` record.
struct ServingCell {
    /// Queries measured for the latency/throughput figures.
    queries: u64,
    queries_per_sec: f64,
    per_query_micros: f64,
    /// FNV digest over the canonical comparison subset of queries —
    /// equal between the resident and prepare-per-query modes of the
    /// same kind by assertion.
    digest: u64,
    /// Resident records only: per-query latency advantage over the
    /// prepare-per-query mode of the same kind.
    speedup_vs_prepare: Option<f64>,
    /// Resident records only: (p50, p90, p99) per-query latency in
    /// microseconds, read from the serving engine's own
    /// `msj_request_latency_nanos{kind}` histogram.
    latency_percentiles_micros: Option<(f64, f64, f64)>,
}

/// One flat measurement record. Optional fields are omitted from the
/// JSON when their stage did not run.
struct Record {
    experiment: &'static str,
    backend: &'static str,
    loader: &'static str,
    mode: String,
    threads: usize,
    millis: f64,
    candidates: u64,
    candidates_per_sec: f64,
    /// `None` for step-1-only cells (no join ran).
    pairs_per_sec: Option<f64>,
    /// `None` when the executor did not time its filter step (the
    /// collect-then-chunk baseline predates the per-step counters) or no
    /// filter ran.
    filter_candidates_per_sec: Option<f64>,
    peak_buffered: u64,
    /// Present on `"raster"` records with the stage enabled.
    raster: Option<RasterCell>,
    /// Present on `"serving"` records.
    serving: Option<ServingCell>,
    /// Present on `"kernels"` records (one per kernel × dispatch path).
    kernel: Option<KernelCell>,
}

impl Record {
    fn to_json(&self) -> String {
        let mut s = format!(
            concat!(
                "{{\"experiment\":\"{}\",\"backend\":\"{}\",\"loader\":\"{}\",",
                "\"mode\":\"{}\",\"threads\":{},\"millis\":{:.3},",
                "\"candidates\":{},\"candidates_per_sec\":{:.0}"
            ),
            self.experiment,
            self.backend,
            self.loader,
            self.mode,
            self.threads,
            self.millis,
            self.candidates,
            self.candidates_per_sec,
        );
        if let Some(v) = self.pairs_per_sec {
            s.push_str(&format!(",\"pairs_per_sec\":{v:.0}"));
        }
        if let Some(v) = self.filter_candidates_per_sec {
            s.push_str(&format!(",\"filter_candidates_per_sec\":{v:.0}"));
        }
        s.push_str(&format!(",\"peak_buffered\":{}", self.peak_buffered));
        if let Some(r) = &self.raster {
            s.push_str(&format!(
                concat!(
                    ",\"raster_grid_bits\":{},\"raster_hits\":{},",
                    "\"raster_drops\":{},\"raster_inconclusive\":{},",
                    "\"raster_decided_fraction\":{:.4},\"step2a_millis\":{:.3}"
                ),
                r.grid_bits, r.hits, r.drops, r.inconclusive, r.decided_fraction, r.step2a_millis,
            ));
        }
        if let Some(q) = &self.serving {
            s.push_str(&format!(
                concat!(
                    ",\"queries\":{},\"queries_per_sec\":{:.1},",
                    "\"per_query_micros\":{:.2},\"digest\":\"{:#018x}\""
                ),
                q.queries, q.queries_per_sec, q.per_query_micros, q.digest,
            ));
            if let Some(v) = q.speedup_vs_prepare {
                s.push_str(&format!(",\"speedup_vs_prepare\":{v:.1}"));
            }
            if let Some((p50, p90, p99)) = q.latency_percentiles_micros {
                s.push_str(&format!(
                    concat!(
                        ",\"latency_p50_micros\":{:.2},",
                        "\"latency_p90_micros\":{:.2},\"latency_p99_micros\":{:.2}"
                    ),
                    p50, p90, p99,
                ));
            }
        }
        if let Some(k) = &self.kernel {
            s.push_str(&format!(
                concat!(
                    ",\"kernel\":\"{}\",\"dispatch\":\"{}\",\"items\":{},",
                    "\"ns_per_item\":{:.3},\"items_per_sec\":{:.0},",
                    "\"speedup_vs_scalar\":{:.3},\"digest\":\"{:#018x}\""
                ),
                k.kernel,
                k.path,
                k.items,
                k.ns_per_item,
                k.items_per_sec,
                k.speedup_vs_scalar,
                k.digest,
            ));
        }
        s.push('}');
        s
    }
}

/// Repetitions per cold (untimed-helper) measurement, matching
/// [`crate::timing::REPS`].
const REPS: usize = crate::timing::REPS;

fn join_record(
    backend: &'static str,
    mode: String,
    threads: usize,
    result: &JoinResult,
    secs: f64,
) -> Record {
    let s = &result.stats;
    Record {
        experiment: "join",
        backend,
        loader: "str",
        mode,
        threads,
        millis: secs * 1e3,
        candidates: s.mbr_join.candidates,
        candidates_per_sec: s.mbr_join.candidates as f64 / secs.max(1e-12),
        pairs_per_sec: Some(s.result_pairs as f64 / secs.max(1e-12)),
        filter_candidates_per_sec: (s.step2_nanos > 0)
            .then(|| s.mbr_join.candidates as f64 / (s.step2_nanos as f64 / 1e9)),
        peak_buffered: s.peak_buffered_candidates,
        raster: None,
        serving: None,
        kernel: None,
    }
}

/// The sections a [`bench_json_only`] filter can select.
pub const SECTIONS: [&str; 9] = [
    "step1",
    "join",
    "raster",
    "serving",
    "kernels",
    "obs",
    "robustness",
    "serving_load",
    "cold_start",
];

/// Runs the full measurement matrix and renders the JSON document.
pub fn bench_json(cfg: &ExpConfig) -> String {
    bench_json_only(cfg, None)
}

/// Like [`bench_json`], restricted to one section (`"step1"`, `"join"`,
/// `"raster"`, `"serving"`, `"kernels"` or `"obs"`) when `only` is set —
/// the `repro --only` fast path.
pub fn bench_json_only(cfg: &ExpConfig, only: Option<&str>) -> String {
    let n = cfg.large_count() / 2;
    let a = Arc::new(msj_datagen::skewed_carto(n, 24.0, cfg.seed));
    let b = Arc::new(msj_datagen::skewed_carto(n, 24.0, cfg.seed + 1));
    let want = |section: &str| only.is_none_or(|o| o == section);

    let grid_tiles = match Backend::partitioned_auto() {
        Backend::PartitionedSweep { tiles_per_axis, .. } => tiles_per_axis,
        Backend::RStarTraversal => unreachable!("partitioned_auto is partitioned"),
    };
    let backends: [(&'static str, Backend); 2] = [
        ("rstar", Backend::RStarTraversal),
        (
            "grid",
            Backend::PartitionedSweep {
                tiles_per_axis: grid_tiles,
                threads: 1,
            },
        ),
    ];

    let mut records: Vec<Record> = Vec::new();
    let mut reference: Option<Vec<(u32, u32)>> = None;
    let mut check = |result: &JoinResult, label: &str| {
        let mut got = result.pairs.clone();
        got.sort_unstable();
        match &reference {
            None => reference = Some(got),
            Some(expect) => assert_eq!(&got, expect, "{label}: response set diverged"),
        }
    };

    // Step-1 throughput per backend, construction + streaming.
    if want("step1") {
        for (backend_name, backend) in backends {
            let config = JoinConfig::builder().backend(backend).build();
            // Minimum over REPS cold construct+stream runs, like the
            // join cells (the runs are deterministic).
            let mut secs = f64::INFINITY;
            let mut stats = msj_core::Step1Stats::default();
            for _ in 0..REPS {
                let start = Instant::now();
                let source = join_source(&config, &a, &b);
                stats = source.stream_candidates(&mut |_, _| {});
                secs = secs.min(start.elapsed().as_secs_f64().max(1e-12));
            }
            records.push(Record {
                experiment: "step1",
                backend: backend_name,
                loader: "str",
                mode: "construct+stream".into(),
                threads: 1,
                millis: secs * 1e3,
                candidates: stats.join.candidates,
                candidates_per_sec: stats.join.candidates as f64 / secs,
                pairs_per_sec: None,
                filter_candidates_per_sec: None,
                peak_buffered: stats.peak_buffered,
                raster: None,
                serving: None,
                kernel: None,
            });
        }
    }

    // Steps 1–3 on a resident engine: backend × execution mode. The
    // engine owns Step 0; every timed run is Steps 1–3 against the shared
    // prepared join.
    if want("join") {
        for (backend_name, backend) in backends {
            let base = JoinConfig::builder().backend(backend).build();
            let engine = SpatialEngine::new(base);
            let (ha, hb) = (engine.register(a.clone()), engine.register(b.clone()));
            let prepared = engine.prepare_join(&ha, &hb);
            let _ = prepared.run_with(Execution::Serial); // warm-up
            let (serial, serial_secs) = timed(|| prepared.run_with(Execution::Serial));
            check(&serial, &format!("{backend_name}/serial"));
            records.push(join_record(
                backend_name,
                "serial".into(),
                1,
                &serial,
                serial_secs,
            ));
            for threads in [1usize, 4] {
                let (fused, fused_secs) = timed(|| prepared.run_with(Execution::Fused { threads }));
                check(&fused, &format!("{backend_name}/fused x{threads}"));
                records.push(join_record(
                    backend_name,
                    "fused".into(),
                    threads,
                    &fused,
                    fused_secs,
                ));
            }
            // The per-pair protocol (batch=1) and the collect-then-chunk
            // baseline.
            let per_pair_engine = SpatialEngine::new(base.to_builder().batch_pairs(1).build());
            let (pa, pb) = (
                per_pair_engine.register(a.clone()),
                per_pair_engine.register(b.clone()),
            );
            let per_pair_prepared = per_pair_engine.prepare_join(&pa, &pb);
            let _ = per_pair_prepared.run_with(Execution::Serial);
            let (unbatched, unbatched_secs) =
                timed(|| per_pair_prepared.run_with(Execution::Fused { threads: 4 }));
            check(&unbatched, &format!("{backend_name}/str/batch1"));
            records.push(join_record(
                backend_name,
                "fused-batch1".into(),
                4,
                &unbatched,
                unbatched_secs,
            ));
            let mut baseline = PreparedBaseline::new(&a, &b, &base, 4);
            let _ = baseline.run();
            let (baseline_result, baseline_secs) = timed(|| baseline.run());
            check(&baseline_result, &format!("{backend_name}/str/baseline"));
            records.push(join_record(
                backend_name,
                "collect-chunk".into(),
                4,
                &baseline_result,
                baseline_secs,
            ));
        }
    }

    // Step 2a: the raster pre-filter sweep (the same cells as the
    // `raster` experiment), fused ×4 on the default backend. Every cell
    // must reproduce the same response set (the PR-4 acceptance
    // criterion).
    if want("raster") {
        for (label, raster) in SWEEP {
            let config = JoinConfig::builder().raster(raster).build();
            let engine = SpatialEngine::new(config);
            let (ha, hb) = (engine.register(a.clone()), engine.register(b.clone()));
            let prepared = engine.prepare_join(&ha, &hb);
            let _ = prepared.run_with(Execution::Fused { threads: 4 });
            let (result, secs) = timed(|| prepared.run_with(Execution::Fused { threads: 4 }));
            let mode = format!("raster-{label}");
            check(&result, &format!("raster/{mode}"));
            let s = &result.stats;
            let mut rec = join_record("rstar", mode, 4, &result, secs);
            rec.experiment = "raster";
            rec.raster = raster.enabled.then(|| RasterCell {
                // Report the *resolved* resolution for auto-sized cells.
                grid_bits: resolved_grid_bits(raster, &a, &b),
                hits: s.raster_hits,
                drops: s.raster_drops,
                inconclusive: s.raster_inconclusive,
                decided_fraction: s.raster_decided_fraction(),
                step2a_millis: s.step2a_nanos as f64 / 1e6,
            });
            records.push(rec);
        }
    }

    // Serving: per-query latency of point/window/join traffic on the
    // resident engine vs paying Step-0 preparation per query (the PR-5
    // acceptance matrix).
    if want("serving") {
        records.extend(serving_records(cfg, &a, &b));
    }

    // Vectorized kernels: scalar vs wide microbenches per dispatch path
    // (cross-path output digests asserted equal inside the measurement).
    if want("kernels") {
        for cell in measure_kernels(cfg) {
            records.push(Record {
                experiment: "kernels",
                backend: "-",
                loader: "-",
                mode: format!("{}-{}", cell.kernel, cell.path),
                threads: 1,
                millis: cell.ns_per_item * cell.items as f64 / 1e6,
                candidates: cell.items,
                candidates_per_sec: cell.items_per_sec,
                pairs_per_sec: None,
                filter_candidates_per_sec: None,
                peak_buffered: 0,
                raster: None,
                serving: None,
                kernel: Some(cell),
            });
        }
    }

    // Observability: engine snapshot + the always-on overhead guard.
    let obs = want("obs").then(|| obs_section(&a, &b));

    // Robustness: deadline time-to-error + fault-hook overhead guard.
    let robustness = want("robustness").then(|| robustness_section(cfg));

    // Serving load: the network front's throughput/overload/drain story.
    let serving_load = want("serving_load").then(|| serving_load_section(cfg));

    // Cold start: persisted-segment load vs Step-0 rebuild (the PR-10
    // acceptance guard — >= 10x above the noise floor — is asserted
    // inside the measurement).
    let cold_start = want("cold_start").then(|| cold_start_section(cfg));

    render(
        cfg,
        &a,
        &b,
        &records,
        obs.as_deref(),
        robustness.as_deref(),
        serving_load.as_deref(),
        cold_start.as_deref(),
    )
}

/// The `"cold_start"` payload: rebuild vs load wall-clock (total and
/// per section), the read + checksum floor of the same files, segment
/// file sizes, the asserted digest equality and whether the
/// open-over-floor guard was binding for this run.
fn cold_start_section(cfg: &ExpConfig) -> String {
    let m = crate::experiments::cold_start::measure_cold_start(cfg);
    let mut out = format!(
        concat!(
            "{{\"objects_per_dataset\":{},",
            "\"rebuild_millis\":{:.3},\"cold_open_millis\":{:.3},",
            "\"floor_millis\":{:.3},\"open_over_floor\":{:.3},",
            "\"speedup\":{:.2},\"guard_enforced\":{},",
            "\"store_bytes\":[{},{}],\"digest_equal\":{},",
            "\"sections\":["
        ),
        m.objects,
        m.rebuild_millis[0] + m.rebuild_millis[1],
        m.open_millis,
        m.floor_millis,
        m.open_over_floor,
        m.speedup,
        m.guard_enforced,
        m.store_bytes[0],
        m.store_bytes[1],
        m.digest_equal,
    );
    for (i, row) in m.sections.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"bytes\":{},\"rebuild_millis\":{},\"load_millis\":{:.3}}}",
            row.name,
            row.bytes,
            row.rebuild_millis
                .map_or("null".into(), |v| format!("{v:.3}")),
            row.load_millis,
        ));
    }
    out.push_str("]}");
    out
}

/// The `"serving_load"` payload: the PR-9 network-front measurements.
/// The phase-level invariants (batched > serial, answered == sent,
/// shed > 0 under the flood, byte-identical completed frames) are
/// asserted inside the measurement; the payload reports the numbers.
fn serving_load_section(cfg: &ExpConfig) -> String {
    let m = measure_serving_load(cfg);
    format!(
        concat!(
            "{{\"clients\":{},\"queries\":{},",
            "\"serial_queries_per_sec\":{:.1},\"batched_queries_per_sec\":{:.1},",
            "\"batched_speedup\":{:.3},",
            "\"queue_wait_p50_micros\":{:.2},\"queue_wait_p90_micros\":{:.2},",
            "\"queue_wait_p99_micros\":{:.2},",
            "\"e2e_p50_micros\":{:.2},\"e2e_p90_micros\":{:.2},",
            "\"e2e_p99_micros\":{:.2},",
            "\"overload\":{{\"queue_bound\":{},\"sent\":{},\"completed\":{},",
            "\"shed\":{},\"other_refusals\":{}}},\"drain_clean\":{}}}"
        ),
        LOAD_CLIENTS,
        m.queries,
        m.serial_qps,
        m.batched_qps,
        m.batched_speedup,
        m.queue_wait_micros.0,
        m.queue_wait_micros.1,
        m.queue_wait_micros.2,
        m.e2e_micros.0,
        m.e2e_micros.1,
        m.e2e_micros.2,
        OVERLOAD_QUEUE_BOUND,
        m.overload_sent,
        m.overload_completed,
        m.overload_shed,
        m.overload_other,
        m.drain_clean,
    )
}

/// The `"robustness"` payload: the PR-8 failure-story measurements
/// (cancellation latency against a 50%-of-estimate deadline, and the
/// armed-vs-disabled fault-hook overhead guard).
fn robustness_section(cfg: &ExpConfig) -> String {
    let m = measure_robustness(cfg);
    format!(
        concat!(
            "{{\"deadline\":{{\"estimated_millis\":{:.3},\"from_history\":{},",
            "\"deadline_millis\":{:.3},\"time_to_error_millis\":{:.3},",
            "\"overshoot_millis\":{:.3},\"batch_wall_millis\":{:.3},",
            "\"batches\":{},\"partial_candidates\":{},\"guard_enforced\":{}}},",
            "\"fault_hooks\":{{\"disabled_millis\":{:.3},\"armed_millis\":{:.3},",
            "\"overhead_fraction\":{:.4},\"guard_enforced\":{}}}}}"
        ),
        m.estimated_millis,
        m.from_history,
        m.deadline_millis,
        m.time_to_error_millis,
        m.overshoot_millis,
        m.batch_wall_millis,
        m.batches,
        m.partial_candidates,
        m.deadline_guard_enforced,
        m.disabled_millis,
        m.armed_millis,
        m.hook_overhead_fraction,
        m.hook_guard_enforced,
    )
}

/// (p50, p90, p99) per-query latency in microseconds for one request
/// kind, read back from the engine's own metrics registry.
fn latency_percentiles(engine: &SpatialEngine, kind: &str) -> Option<(f64, f64, f64)> {
    let key = format!("msj_request_latency_nanos{{kind=\"{kind}\"}}");
    let snap = engine.metrics().snapshot();
    let h = snap.histogram(&key)?;
    (h.count > 0).then(|| {
        (
            h.p50() as f64 / 1e3,
            h.p90() as f64 / 1e3,
            h.p99() as f64 / 1e3,
        )
    })
}

/// The `"obs"` payload: a schema-versioned [`SpatialEngine`] metrics
/// snapshot after a fixed request mix, plus the overhead guard — the
/// same fused join timed with observability on vs
/// [`ObsConfig::disabled`]. The guard asserts the always-on promise
/// (< 3% wall-clock) whenever the disabled baseline is ≥ 20 ms; below
/// that the ratio is timer noise and is only reported.
fn obs_section(a: &Arc<Relation>, b: &Arc<Relation>) -> String {
    let engine = SpatialEngine::new(
        JoinConfig::builder()
            .obs(ObsConfig::with_traces(16))
            .build(),
    );
    let (ha, hb) = (engine.register(a.clone()), engine.register(b.clone()));
    let prepared = engine.prepare_join(&ha, &hb);
    let _ = prepared.run_with(Execution::Fused { threads: 4 });
    let (points, windows) = serving_queries(a, 8);
    for (p, w) in points.iter().zip(&windows) {
        let _ = engine.point_query_batch(&ha, &[*p]);
        let _ = engine.window_query_batch(&ha, &[*w]);
    }
    let snapshot = engine.metrics().snapshot_json();

    let timed_join = |obs: ObsConfig| {
        let e = SpatialEngine::new(JoinConfig::builder().obs(obs).build());
        let (xa, xb) = (e.register(a.clone()), e.register(b.clone()));
        let p = e.prepare_join(&xa, &xb);
        let _ = p.run_with(Execution::Fused { threads: 4 }); // warm-up
        let (_, secs) = timed(|| p.run_with(Execution::Fused { threads: 4 }));
        secs
    };
    // The overhead is estimated per round — each round times the two
    // configurations back-to-back and the least-noise round wins.
    // Comparing a global min-on against a global min-off instead would
    // let a load spike that lands between the two measurements
    // masquerade as metrics overhead (observed at ±5% on shared CI
    // boxes, swamping the 3% budget); within a round the same spike
    // inflates both sides and cancels in the ratio.
    let mut off_secs = f64::INFINITY;
    let mut on_secs = f64::INFINITY;
    let mut overhead = f64::INFINITY;
    for _ in 0..3 {
        let off = timed_join(ObsConfig::disabled());
        let on = timed_join(ObsConfig::default());
        off_secs = off_secs.min(off);
        on_secs = on_secs.min(on);
        overhead = overhead.min((on - off) / off.max(1e-12));
    }
    // Enforced only in optimized builds on a ≥ 20 ms baseline: below
    // that the ratio is timer noise, and debug binaries inside a
    // parallel test harness share cores with other 4-thread joins.
    let guard_enforced = off_secs >= 0.020 && !cfg!(debug_assertions);
    if guard_enforced {
        assert!(
            overhead < 0.03,
            "observability overhead {:.2}% exceeds the 3% budget \
             (metrics on {:.2} ms vs off {:.2} ms)",
            overhead * 100.0,
            on_secs * 1e3,
            off_secs * 1e3,
        );
    }
    format!(
        concat!(
            "{{\"snapshot\":{},\"overhead\":{{",
            "\"baseline_millis\":{:.3},\"observed_millis\":{:.3},",
            "\"overhead_fraction\":{:.4},\"guard_enforced\":{}}}}}"
        ),
        snapshot,
        off_secs * 1e3,
        on_secs * 1e3,
        overhead,
        guard_enforced,
    )
}

fn ids_digest(acc: u64, ids: &mut [ObjectId]) -> u64 {
    ids.sort_unstable();
    // Chain the per-query pair digest (id, position) so query order and
    // per-query membership both matter.
    let mut acc = acc;
    for (i, &id) in ids.iter().enumerate() {
        acc ^= response_digest(&[(id, i as u32)]);
        acc = acc.rotate_left(17);
    }
    acc.wrapping_add(ids.len() as u64 + 1)
}

/// The resident-only extras of a serving cell: the latency advantage
/// over prepare-per-query and the engine-histogram percentiles.
struct ResidentView {
    speedup_vs_prepare: f64,
    percentiles: Option<(f64, f64, f64)>,
}

fn serving_record(
    mode: &str,
    kind: &str,
    threads: usize,
    queries: u64,
    secs: f64,
    digest: u64,
    resident: Option<ResidentView>,
) -> Record {
    let per_query = secs / queries.max(1) as f64;
    Record {
        experiment: "serving",
        backend: "rstar",
        loader: "str",
        mode: format!("{mode}-{kind}"),
        threads,
        millis: secs * 1e3,
        candidates: 0,
        candidates_per_sec: 0.0,
        pairs_per_sec: None,
        filter_candidates_per_sec: None,
        peak_buffered: 0,
        raster: None,
        serving: Some(ServingCell {
            queries,
            queries_per_sec: queries as f64 / secs.max(1e-12),
            per_query_micros: per_query * 1e6,
            digest,
            speedup_vs_prepare: resident.as_ref().map(|r| r.speedup_vs_prepare),
            latency_percentiles_micros: resident.and_then(|r| r.percentiles),
        }),
        kernel: None,
    }
}

fn serving_records(cfg: &ExpConfig, a: &Arc<Relation>, b: &Arc<Relation>) -> Vec<Record> {
    let config = JoinConfig::default();
    let engine = SpatialEngine::new(config);
    let (ha, hb) = (engine.register(a.clone()), engine.register(b.clone()));
    let q = cfg.query_count();
    let (points, windows) = serving_queries(a, q);
    let mut records = Vec::new();

    // Selection traffic: resident over the full workload,
    // prepare-per-query over the bounded subset (each iteration builds a
    // fresh engine and registers the dataset — full Step 0 — before the
    // single probe). Digests compare the shared subset.
    for kind in ["point", "window"] {
        let run_resident = |e: &SpatialEngine, h: &msj_core::DatasetHandle, i: usize| match kind {
            "point" => e.point_query_batch(h, &[points[i]]).remove(0).ids,
            _ => e.window_query_batch(h, &[windows[i]]).remove(0).ids,
        };
        // Warm the lazy parts once, then time the full workload.
        let _ = run_resident(&engine, &ha, 0);
        let t = Instant::now();
        let mut resident_subset_digest = 0u64;
        for i in 0..q {
            let mut ids = run_resident(&engine, &ha, i);
            if i < SERVING_PREPARE_QUERIES {
                resident_subset_digest = ids_digest(resident_subset_digest, &mut ids);
            }
        }
        let resident_secs = t.elapsed().as_secs_f64();

        let prep_q = SERVING_PREPARE_QUERIES.min(q);
        let t = Instant::now();
        let mut prepare_digest = 0u64;
        for i in 0..prep_q {
            let fresh = SpatialEngine::new(config);
            let h = fresh.register(a.clone());
            let mut ids = run_resident(&fresh, &h, i);
            prepare_digest = ids_digest(prepare_digest, &mut ids);
        }
        let prepare_secs = t.elapsed().as_secs_f64();
        assert_eq!(
            resident_subset_digest, prepare_digest,
            "serving/{kind}: resident and prepare-per-query digests diverged"
        );
        let per_query_resident = resident_secs / q as f64;
        let per_query_prepare = prepare_secs / prep_q.max(1) as f64;
        records.push(serving_record(
            "resident",
            kind,
            1,
            q as u64,
            resident_secs,
            resident_subset_digest,
            Some(ResidentView {
                speedup_vs_prepare: per_query_prepare / per_query_resident.max(1e-12),
                percentiles: latency_percentiles(&engine, kind),
            }),
        ));
        records.push(serving_record(
            "prepare-per-query",
            kind,
            1,
            prep_q as u64,
            prepare_secs,
            prepare_digest,
            None,
        ));
    }

    // Join traffic: the resident prepared join re-executed vs a full
    // register+prepare+run per query.
    let prepared = engine.prepare_join(&ha, &hb);
    let _ = prepared.run_with(Execution::Fused { threads: 4 }); // warm
    let t = Instant::now();
    let mut resident_digest = 0u64;
    for _ in 0..SERVING_JOIN_RUNS {
        let result = prepared.run_with(Execution::Fused { threads: 4 });
        resident_digest ^= response_digest(&result.pairs);
    }
    let resident_secs = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut prepare_digest = 0u64;
    for _ in 0..SERVING_JOIN_RUNS {
        let fresh = SpatialEngine::new(config);
        let (fa, fb) = (fresh.register(a.clone()), fresh.register(b.clone()));
        let result = fresh
            .prepare_join(&fa, &fb)
            .run_with(Execution::Fused { threads: 4 });
        prepare_digest ^= response_digest(&result.pairs);
    }
    let prepare_secs = t.elapsed().as_secs_f64();
    assert_eq!(
        resident_digest, prepare_digest,
        "serving/join: resident and prepare-per-query digests diverged"
    );
    let per_query_resident = resident_secs / SERVING_JOIN_RUNS as f64;
    let per_query_prepare = prepare_secs / SERVING_JOIN_RUNS as f64;
    records.push(serving_record(
        "resident",
        "join",
        4,
        SERVING_JOIN_RUNS as u64,
        resident_secs,
        resident_digest,
        Some(ResidentView {
            speedup_vs_prepare: per_query_prepare / per_query_resident.max(1e-12),
            percentiles: latency_percentiles(&engine, "join"),
        }),
    ));
    records.push(serving_record(
        "prepare-per-query",
        "join",
        4,
        SERVING_JOIN_RUNS as u64,
        prepare_secs,
        prepare_digest,
        None,
    ));
    records
}

#[allow(clippy::too_many_arguments)]
fn render(
    cfg: &ExpConfig,
    a: &Relation,
    b: &Relation,
    records: &[Record],
    obs: Option<&str>,
    robustness: Option<&str>,
    serving_load: Option<&str>,
    cold_start: Option<&str>,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"msj-bench-pr10\",\n");
    out.push_str("  \"workload\": \"skewed_carto\",\n");
    out.push_str(&format!("  \"objects_a\": {},\n", a.len()));
    out.push_str(&format!("  \"objects_b\": {},\n", b.len()));
    out.push_str(&format!("  \"seed\": {},\n", cfg.seed));
    out.push_str(&format!("  \"scale\": \"{:?}\",\n", cfg.scale));
    out.push_str(
        "  \"agreement\": \"all cells produced the identical canonically sorted response set\",\n",
    );
    if let Some(obs) = obs {
        out.push_str(&format!("  \"obs\": {obs},\n"));
    }
    if let Some(robustness) = robustness {
        out.push_str(&format!("  \"robustness\": {robustness},\n"));
    }
    if let Some(serving_load) = serving_load {
        out.push_str(&format!("  \"serving_load\": {serving_load},\n"));
    }
    if let Some(cold_start) = cold_start {
        out.push_str(&format!("  \"cold_start\": {cold_start},\n"));
    }
    out.push_str("  \"records\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str("    ");
        out.push_str(&r.to_json());
        if i + 1 < records.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::Scale;

    #[test]
    fn bench_json_is_emitted_and_contains_the_matrix() {
        let cfg = ExpConfig {
            seed: 3,
            scale: Scale::Quick,
        };
        let json = bench_json(&cfg);
        for needle in [
            "\"schema\": \"msj-bench-pr10\"",
            "\"obs\": {",
            "\"robustness\": {",
            "\"serving_load\": {",
            "\"cold_start\": {",
            "\"cold_open_millis\":",
            "\"digest_equal\":true",
            "\"batched_speedup\":",
            "\"queue_wait_p99_micros\":",
            "\"e2e_p99_micros\":",
            "\"drain_clean\":true",
            "\"time_to_error_millis\":",
            "\"fault_hooks\":",
            "\"overhead_fraction\":",
            "\"guard_enforced\":",
            "\"msj-obs-v1\"",
            "\"latency_p50_micros\":",
            "\"latency_p99_micros\":",
            "\"experiment\":\"step1\"",
            "\"experiment\":\"join\"",
            "\"experiment\":\"raster\"",
            "\"experiment\":\"serving\"",
            "\"loader\":\"str\"",
            "\"mode\":\"fused\"",
            "\"mode\":\"fused-batch1\"",
            "\"mode\":\"collect-chunk\"",
            "\"mode\":\"raster-off\"",
            "\"mode\":\"raster-b8\"",
            "\"backend\":\"grid\"",
            "\"raster_decided_fraction\":",
            "\"mode\":\"resident-point\"",
            "\"mode\":\"prepare-per-query-point\"",
            "\"mode\":\"resident-window\"",
            "\"mode\":\"resident-join\"",
            "\"queries_per_sec\":",
            "\"per_query_micros\":",
            "\"speedup_vs_prepare\":",
            "\"digest\":\"0x",
            "\"experiment\":\"kernels\"",
            "\"kernel\":\"sweep\"",
            "\"kernel\":\"mer-accept\"",
            "\"dispatch\":\"scalar\"",
            "\"speedup_vs_scalar\":",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
        // Structural sanity: balanced braces/brackets, one record per line.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
        // Omitted-when-absent: step1 cells carry no join/filter
        // throughput, collect-chunk cells no filter throughput, the
        // raster-off cell no raster payload, and only resident serving
        // cells a speedup.
        for line in json.lines() {
            if line.contains("\"experiment\":\"step1\"") {
                assert!(!line.contains("pairs_per_sec"), "step1 cell: {line}");
                assert!(
                    !line.contains("filter_candidates_per_sec"),
                    "step1 cell: {line}"
                );
            }
            if line.contains("\"mode\":\"collect-chunk\"") {
                assert!(
                    !line.contains("filter_candidates_per_sec"),
                    "baseline never timed its filter: {line}"
                );
            }
            if line.contains("\"mode\":\"raster-off\"") {
                assert!(!line.contains("raster_grid_bits"), "off cell: {line}");
            }
            if line.contains("\"mode\":\"prepare-per-query") {
                assert!(
                    !line.contains("speedup_vs_prepare"),
                    "prepare cell carries no speedup: {line}"
                );
                assert!(
                    !line.contains("latency_p50_micros"),
                    "prepare cell carries no engine percentiles: {line}"
                );
            }
        }
    }

    #[test]
    fn only_filter_restricts_the_sections() {
        let cfg = ExpConfig {
            seed: 3,
            scale: Scale::Quick,
        };
        let json = bench_json_only(&cfg, Some("raster"));
        assert!(json.contains("\"experiment\":\"raster\""));
        assert!(!json.contains("\"experiment\":\"step1\""));
        assert!(!json.contains("\"experiment\":\"join\""));
        assert!(!json.contains("\"experiment\":\"serving\""));
        assert!(!json.contains("\"experiment\":\"kernels\""));
        assert!(!json.contains("\"obs\": {"));
        assert!(!json.contains("\"serving_load\": {"));
        assert!(!json.contains("\"cold_start\": {"));
        // The raster sweep still verifies on/off agreement internally
        // (the check closure compares every cell against the first).
        assert!(json.contains("\"mode\":\"raster-off\""));
        assert!(json.contains("\"mode\":\"raster-b10\""));
    }

    #[test]
    fn cold_start_section_reports_the_store_story() {
        let cfg = ExpConfig {
            seed: 3,
            scale: Scale::Quick,
        };
        let json = bench_json_only(&cfg, Some("cold_start"));
        assert!(json.contains("\"cold_start\": {"));
        for needle in [
            "\"rebuild_millis\":",
            "\"cold_open_millis\":",
            "\"speedup\":",
            "\"store_bytes\":[",
            "\"digest_equal\":true",
            "\"sections\":[",
            "\"name\":\"relation\"",
            "\"name\":\"tree\"",
            "\"name\":\"trstar\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
        // Only the cold-start payload — no measurement records.
        assert!(!json.contains("\"experiment\":"));
    }

    #[test]
    fn obs_section_reports_snapshot_and_overhead() {
        let cfg = ExpConfig {
            seed: 7,
            scale: Scale::Quick,
        };
        let json = bench_json_only(&cfg, Some("obs"));
        assert!(json.contains("\"obs\": {"));
        assert!(json.contains("\"schema\":\"msj-obs-v1\""));
        // The snapshot carries live per-kind request latencies and the
        // full described schema (metric keys escape their label quotes).
        assert!(json.contains("msj_request_latency_nanos{kind=\\\"join\\\"}"));
        assert!(json.contains("msj_admission_shed_total"));
        assert!(json.contains("\"baseline_millis\":"));
        assert!(json.contains("\"observed_millis\":"));
        assert!(json.contains("\"overhead_fraction\":"));
        assert!(json.contains("\"guard_enforced\":"));
        // Only the obs payload — no measurement records.
        assert!(!json.contains("\"experiment\":"));
    }

    #[test]
    fn kernels_section_reports_every_path_with_equal_digests() {
        let cfg = ExpConfig {
            seed: 11,
            scale: Scale::Quick,
        };
        let json = bench_json_only(&cfg, Some("kernels"));
        let paths = msj_geom::KernelDispatch::all_available().len();
        // One record per kernel × available dispatch path.
        assert_eq!(
            json.matches("\"experiment\":\"kernels\"").count(),
            2 * paths
        );
        assert!(json.contains("\"dispatch\":\"scalar\""));
        // Cross-path digest agreement per kernel (the measurement panics
        // on divergence; this re-checks from the rendered document).
        for kernel in ["sweep", "mer-accept"] {
            let digests: Vec<&str> = json
                .lines()
                .filter(|l| l.contains(&format!("\"kernel\":\"{kernel}\"")))
                .filter_map(|l| l.split("\"digest\":\"").nth(1))
                .filter_map(|t| t.split('"').next())
                .collect();
            assert_eq!(digests.len(), paths, "{kernel}: one digest per path");
            assert!(
                digests.iter().all(|d| *d == digests[0]),
                "{kernel}: digests diverge across paths"
            );
        }
        // Scalar cells are their own baseline.
        for line in json.lines() {
            if line.contains("\"dispatch\":\"scalar\"") {
                assert!(line.contains("\"speedup_vs_scalar\":1.000"), "{line}");
            }
        }
    }

    #[test]
    fn robustness_section_reports_deadline_and_hook_guard() {
        let cfg = ExpConfig {
            seed: 17,
            scale: Scale::Quick,
        };
        let json = bench_json_only(&cfg, Some("robustness"));
        assert!(json.contains("\"robustness\": {"));
        for needle in [
            "\"deadline\":{",
            "\"estimated_millis\":",
            "\"deadline_millis\":",
            "\"time_to_error_millis\":",
            "\"overshoot_millis\":",
            "\"batch_wall_millis\":",
            "\"partial_candidates\":",
            "\"fault_hooks\":{",
            "\"disabled_millis\":",
            "\"armed_millis\":",
            "\"overhead_fraction\":",
            "\"guard_enforced\":",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
        // Only the robustness payload — no measurement records.
        assert!(!json.contains("\"experiment\":"));
        assert!(!json.contains("\"obs\": {"));
    }

    #[test]
    fn serving_load_section_reports_phases_and_overload() {
        let cfg = ExpConfig {
            seed: 23,
            scale: Scale::Quick,
        };
        let json = bench_json_only(&cfg, Some("serving_load"));
        assert!(json.contains("\"serving_load\": {"));
        for needle in [
            "\"clients\":8",
            "\"serial_queries_per_sec\":",
            "\"batched_queries_per_sec\":",
            "\"batched_speedup\":",
            "\"queue_wait_p50_micros\":",
            "\"queue_wait_p90_micros\":",
            "\"queue_wait_p99_micros\":",
            "\"e2e_p50_micros\":",
            "\"e2e_p99_micros\":",
            "\"overload\":{\"queue_bound\":",
            "\"shed\":",
            "\"other_refusals\":",
            "\"drain_clean\":true",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
        // Only the serving-load payload — no measurement records.
        assert!(!json.contains("\"experiment\":"));
        assert!(!json.contains("\"obs\": {"));
    }

    #[test]
    fn serving_section_asserts_digest_agreement() {
        let cfg = ExpConfig {
            seed: 5,
            scale: Scale::Quick,
        };
        let json = bench_json_only(&cfg, Some("serving"));
        assert!(json.contains("\"experiment\":\"serving\""));
        // Six cells: {resident, prepare-per-query} × {point, window, join}.
        assert_eq!(json.matches("\"experiment\":\"serving\"").count(), 6);
        // Digests of paired modes are equal (the section panics
        // otherwise, so reaching here plus finding both spellings is the
        // assertion).
        for kind in ["point", "window", "join"] {
            let digests: Vec<&str> = json
                .lines()
                .filter(|l| l.contains(&format!("-{kind}\"")))
                .filter_map(|l| l.split("\"digest\":\"").nth(1))
                .filter_map(|t| t.split('"').next())
                .collect();
            assert_eq!(digests.len(), 2, "{kind}: two cells expected");
            assert_eq!(digests[0], digests[1], "{kind}: digests differ");
        }
    }
}

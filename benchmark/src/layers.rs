//! The traced pass: spans around the calls into each crate's public
//! functions, on the inputs the workload generated, then the workload's
//! own loop once without and once with spans. Everything lands in the
//! trace file; [`derive`] turns that file into the per-layer metrics.

use crate::endtoend::{oracle_join_digest, stop};
use crate::loops::{
    brute_force_mismatches, ingest_loop, join_loop, join_request, pairs_digest, query_probes,
    verify_wire, wire_loop, IngestLoop, JoinLoop, Trace, WireLoop, WireTargets,
};
use crate::metrics::{Measured, Outcome, PER_LAYER};
use crate::stats::{median, quantile};
use crate::trace::{SpanId, TraceFile, Tracer};
use crate::workload::{generate, probe_pool, Inputs, Workload};
use msj_approx::{auto_grid_bits, ConservativeStore, ProgressiveStore, RasterGrid, RasterStore};
use msj_core::{
    Backend, FilterOutcome, GeometricFilter, JoinConfig, Request, Response, SpatialEngine,
};
use msj_exact::{ExactAlgorithm, ExactProcessor, OpCounts, Weights};
use msj_geom::{fnv1a64_update, ObjectId, Point, Rect, Relation};
use msj_sam::{tree_join, LruBuffer, PageLayout, RStarTree};
use msj_serve::{
    decode_response, encode_request, encode_response, response_body_for, Client, ResponseBody,
    ServeConfig, Server, WireRequest,
};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Repetitions of each per-layer probe; its metric is their median.
const LAYER_REPS: u32 = 5;
const CODEC_ITERATIONS: u32 = 20_000;

#[derive(Default)]
struct Check {
    attempted: u64,
    failed: u64,
}

impl Check {
    fn expect(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }
}

fn keys(relation: &Relation) -> Vec<(Rect, ObjectId)> {
    relation.iter().map(|o| (o.mbr(), o.id)).collect()
}

/// Step 1 two ways: the R*-tree join (the default backend) and the
/// partitioned sweep. Returns the candidate pairs the later layers are
/// probed with — materialised here, streamed inside the engine.
fn probe_step1(
    tracer: &Tracer,
    root: SpanId,
    config: &JoinConfig,
    inputs: &Inputs,
    check: &mut Check,
) -> Vec<(ObjectId, ObjectId)> {
    let candidates = tracer.span("layer.msj-sam", Some(root), 0, |layer| {
        let layout = PageLayout::with_extra_bytes(config.page_size, config.extra_leaf_bytes());
        let bulk_load = |rep, relation: &Relation| {
            tracer.span("sam.bulk_load", Some(layer), rep, |_| {
                RStarTree::bulk_load(layout, keys(relation))
            })
        };
        let (tree_a, tree_b) = (bulk_load(0, &inputs.a), bulk_load(1, &inputs.b));
        let mut candidates = Vec::new();
        for rep in 0..LAYER_REPS {
            let mut buffer = LruBuffer::with_bytes(config.buffer_bytes, config.page_size);
            let mut pairs = Vec::with_capacity(candidates.len());
            let stats = tracer.span("sam.tree_join", Some(layer), rep, |_| {
                tree_join(&tree_a, &tree_b, &mut buffer, |a, b| pairs.push((a, b)))
            });
            tracer.count("sam.candidates", stats.candidates as f64, rep);
            tracer.count("sam.mbr_tests", stats.mbr_tests as f64, rep);
            tracer.count("sam.page_accesses", stats.io.physical as f64, rep);
            candidates = pairs;
        }
        candidates
    });

    tracer.span("layer.msj-partition", Some(root), 0, |layer| {
        let Backend::PartitionedSweep { tiles_per_axis, .. } = Backend::partitioned_auto() else {
            unreachable!("partitioned_auto returns the partitioned backend");
        };
        let (keys_a, keys_b) = (keys(&inputs.a), keys(&inputs.b));
        for rep in 0..LAYER_REPS {
            let mut emitted = 0u64;
            let stats = tracer.span("partition.join", Some(layer), rep, |_| {
                msj_partition::partition_join(&keys_a, &keys_b, tiles_per_axis, 1, |_, _| {
                    emitted += 1
                })
            });
            tracer.count("partition.candidates", emitted as f64, rep);
            tracer.count(
                "partition.replication_factor",
                stats.replication_factor(),
                rep,
            );
            check.expect(
                emitted == candidates.len() as u64,
                "partition.candidates == sam.candidates",
            );
        }
    });
    candidates
}

/// Step-0 approximation builds, one span per relation.
fn probe_approx(tracer: &Tracer, root: SpanId, config: &JoinConfig, inputs: &Inputs) {
    tracer.span("layer.msj-approx", Some(root), 0, |layer| {
        let relations = [&inputs.a, &inputs.b];
        for (rep, relation) in (0..).zip(relations) {
            if let Some(kind) = config.conservative {
                let store = tracer.span("approx.conservative_build", Some(layer), rep, |_| {
                    ConservativeStore::build(kind, relation)
                });
                std::hint::black_box(store.len());
            }
            if let Some(kind) = config.progressive {
                let store = tracer.span("approx.progressive_build", Some(layer), rep, |_| {
                    ProgressiveStore::build(kind, relation)
                });
                std::hint::black_box(store.len());
            }
        }
        let bits = auto_grid_bits(&inputs.a, &inputs.b);
        let mut intervals = 0;
        if let Some(grid) = RasterGrid::covering(&inputs.a, &inputs.b, bits) {
            for (rep, relation) in (0..).zip(relations) {
                let store = tracer.span("approx.raster_build", Some(layer), rep, |_| {
                    RasterStore::build(&grid, relation)
                });
                intervals += store.interval_count();
            }
        }
        tracer.count(
            "approx.raster_intervals_per_object",
            intervals as f64 / (inputs.a.len() + inputs.b.len()).max(1) as f64,
            0,
        );
    });
}

struct Filtered {
    /// Pairs the filter identified as hits.
    hits: Vec<(ObjectId, ObjectId)>,
    /// Pairs it left for the exact step.
    undecided: Vec<(ObjectId, ObjectId)>,
}

/// Step 2 on the Step-1 candidates, batch by batch like the engine.
fn probe_filter(
    tracer: &Tracer,
    root: SpanId,
    config: &JoinConfig,
    inputs: &Inputs,
    candidates: &[(ObjectId, ObjectId)],
) -> Filtered {
    tracer.span("layer.msj-core.filter", Some(root), 0, |layer| {
        let filter = tracer.span("core.filter_build", Some(layer), 0, |_| {
            GeometricFilter::from_config(config, &inputs.a, &inputs.b)
        });
        let mut filtered = Filtered {
            hits: Vec::new(),
            undecided: Vec::new(),
        };
        let mut outcomes = Vec::new();
        for rep in 0..LAYER_REPS {
            let (mut raster, mut identified, mut step2a_ns) = (0u64, 0u64, 0u64);
            filtered.hits.clear();
            filtered.undecided.clear();
            tracer.span("core.filter", Some(layer), rep, |span| {
                let start = tracer.now_ns();
                for batch in candidates.chunks(config.batch_pairs.max(1)) {
                    step2a_ns += filter.classify_batch(batch, &mut outcomes);
                    for (&pair, outcome) in batch.iter().zip(&outcomes) {
                        match outcome {
                            FilterOutcome::Candidate => filtered.undecided.push(pair),
                            FilterOutcome::FalseHit | FilterOutcome::DropRaster => {}
                            _ => filtered.hits.push(pair),
                        }
                        raster += u64::from(matches!(
                            outcome,
                            FilterOutcome::HitRaster | FilterOutcome::DropRaster
                        ));
                        identified += u64::from(*outcome != FilterOutcome::Candidate);
                    }
                }
                // The raster stage runs first in every batch; classify_batch
                // reports its duration, laid here at the head of the span.
                tracer.record(
                    "core.filter_step2a",
                    start,
                    start + step2a_ns,
                    Some(span),
                    rep,
                );
            });
            tracer.count("core.filter_raster_decided", raster as f64, rep);
            tracer.count("core.filter_identified", identified as f64, rep);
            tracer.count(
                "core.exact_candidates",
                filtered.undecided.len() as f64,
                rep,
            );
        }
        filtered
    })
}

/// Step 3 on the pairs Step 2 left: the default TR*-tree, then once the
/// restricted plane sweep on the same pairs. Returns the exact hits.
fn probe_exact(
    tracer: &Tracer,
    root: SpanId,
    config: &JoinConfig,
    inputs: &Inputs,
    undecided: &[(ObjectId, ObjectId)],
    check: &mut Check,
) -> Vec<(ObjectId, ObjectId)> {
    tracer.span("layer.msj-exact", Some(root), 0, |layer| {
        let processor = tracer.span("exact.build", Some(layer), 0, |_| {
            ExactProcessor::new(config.exact, &inputs.a, &inputs.b)
        });
        let mut hits = Vec::new();
        for rep in 0..LAYER_REPS {
            let mut counts = OpCounts::new();
            hits.clear();
            tracer.span("exact.intersects", Some(layer), rep, |_| {
                for &(a, b) in undecided {
                    if processor.intersects(a, b, &mut counts) {
                        hits.push((a, b));
                    }
                }
            });
            tracer.count("exact.tests", undecided.len() as f64, rep);
            tracer.count("exact.hits", hits.len() as f64, rep);
            tracer.count(
                "exact.weighted_ops",
                counts.cost_ms(&Weights::default()),
                rep,
            );
        }
        let sweep = ExactProcessor::new(
            ExactAlgorithm::PlaneSweep { restrict: true },
            &inputs.a,
            &inputs.b,
        );
        let mut counts = OpCounts::new();
        let sweep_hits = tracer.span("exact.sweep", Some(layer), 0, |_| {
            undecided
                .iter()
                .filter(|&&(a, b)| sweep.intersects(a, b, &mut counts))
                .count()
        });
        check.expect(
            sweep_hits == hits.len(),
            "plane sweep and TR*-tree agree on the Step-3 pairs",
        );
        hits
    })
}

fn overhead_share(untraced_ns: &[u64], traced_ns: &[u64]) -> f64 {
    let as_f64 = |v: &[u64]| v.iter().map(|&n| n as f64).collect::<Vec<_>>();
    median(&as_f64(traced_ns)) / median(&as_f64(untraced_ns)) - 1.0
}

/// Runs `run` under a layer span: for the whole duration when the loop
/// is the workload's own — first without spans, then with, which prices
/// the tracing — and for a token duration otherwise.
#[allow(clippy::too_many_arguments)]
fn own_or_token<T>(
    tracer: &Tracer,
    root: SpanId,
    layer: &str,
    own: bool,
    duration: Duration,
    token: Duration,
    latencies: impl Fn(&T) -> &[u64],
    mut run: impl FnMut(Duration, Trace<'_>) -> T,
) -> T {
    if !own {
        return tracer.span(layer, Some(root), 0, |span| {
            run(token, Some((tracer, Some(span))))
        });
    }
    let untraced = run(duration / 2, None);
    let traced = tracer.span(layer, Some(root), 0, |span| {
        run(duration / 2, Some((tracer, Some(span))))
    });
    tracer.count(
        "trace.overhead_share",
        overhead_share(latencies(&untraced), latencies(&traced)),
        0,
    );
    traced
}

fn prometheus_values<'a>(text: &'a str, family: &'a str) -> impl Iterator<Item = f64> + 'a {
    text.lines().filter_map(move |line| {
        let (key, value) = line.rsplit_once(' ')?;
        let rest = key.strip_prefix(family)?;
        (rest.is_empty() || rest.starts_with('{'))
            .then(|| value.parse().ok())
            .flatten()
    })
}

fn prometheus_value(text: &str, key: &str) -> f64 {
    text.lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or(f64::NAN)
}

/// What the wire `Metrics` request exposes about the serving queues.
fn record_serve_metrics(tracer: &Tracer, addr: std::net::SocketAddr, check: &mut Check) {
    let exposition = Client::connect(addr)
        .and_then(|mut client| client.call(&WireRequest::metrics(1)))
        .ok()
        .and_then(|reply| match reply.body {
            ResponseBody::Text(text) => Some(text),
            _ => None,
        });
    check.expect(exposition.is_some(), "wire Metrics request answered");
    let text = exposition.unwrap_or_default();
    tracer.count(
        "serve.batch_mean_size",
        prometheus_value(&text, "msj_serve_batch_size_sum")
            / prometheus_value(&text, "msj_serve_batch_size_count"),
        0,
    );
    for (name, key) in [
        (
            "serve.queue_wait_us_p50",
            "msj_queue_wait_nanos{quantile=\"0.5\"}",
        ),
        (
            "serve.queue_wait_us_p99",
            "msj_queue_wait_nanos{quantile=\"0.99\"}",
        ),
    ] {
        tracer.count(name, prometheus_value(&text, key) / 1e3, 0);
    }
    for (name, family) in [
        ("serve.shed_total", "msj_request_shed_total"),
        ("serve.frames_rejected_total", "msj_frames_rejected_total"),
    ] {
        tracer.count(name, prometheus_values(&text, family).sum(), 0);
    }
}

pub fn run(workload: Workload, seed: u64, seconds: f64, scale: f64, out_dir: &Path) -> Outcome {
    let tracer = Tracer::new();
    let mut check = Check::default();
    let digest = tracer.span("traced_pass", None, 0, |root| {
        probe_all(
            &tracer, root, &mut check, workload, seed, seconds, scale, out_dir,
        )
    });

    let path = out_dir.join(format!("trace-{}.json", workload.name()));
    tracer
        .write(&path, workload.name(), seed)
        .expect("writing the trace file under the output directory");
    let file = TraceFile::load(&path).expect("reading back the trace file just written");
    let (metrics, mut notes) = derive(&file, workload);
    notes.push(format!("trace written to {}", path.display()));
    Outcome {
        attempted: check.attempted,
        failed: check.failed,
        metrics,
        as_measured: Vec::new(),
        response_digest: digest,
        notes,
    }
}

/// Every probe, in layer order; returns the response digest.
#[allow(clippy::too_many_arguments)]
fn probe_all(
    tracer: &Tracer,
    root: SpanId,
    check: &mut Check,
    workload: Workload,
    seed: u64,
    seconds: f64,
    scale: f64,
    out_dir: &Path,
) -> u64 {
    let duration = Duration::from_secs_f64(seconds);
    let config = JoinConfig::default();
    let inputs = generate(workload, seed, scale);
    let pool = probe_pool(seed);

    // The layers one by one, outside the engine.
    let candidates = probe_step1(tracer, root, &config, &inputs, check);
    probe_approx(tracer, root, &config, &inputs);
    let filtered = probe_filter(tracer, root, &config, &inputs, &candidates);
    let mut response = probe_exact(tracer, root, &config, &inputs, &filtered.undecided, check);
    response.extend(&filtered.hits);
    response.sort_unstable();
    let layered_digest = pairs_digest(&response);
    drop((candidates, filtered, response));

    // The engine over the same inputs.
    let engine = Arc::new(SpatialEngine::new(config));
    let (a, b, probe, first_digest) =
        tracer.span("layer.msj-core.engine", Some(root), 0, |layer| {
            let register = |name, rep, relation: &Arc<Relation>| {
                tracer.span(name, Some(layer), rep, |_| {
                    engine.register(relation.clone())
                })
            };
            let a = register("core.register", 0, &inputs.a);
            let b = register("core.register", 1, &inputs.b);
            let probe = if inputs.probe_is_a() {
                a.id()
            } else {
                register("core.register_probe", 0, &inputs.probe).id()
            };
            tracer.span("core.prepare", Some(layer), 0, |_| {
                std::hint::black_box(engine.prepare_join(&a, &b));
            });
            let first = tracer.span("core.first_join", Some(layer), 0, |_| {
                engine.submit(join_request(a.id(), b.id()))
            });
            let first_digest = match first {
                Ok(Response::Join(join)) => Some(pairs_digest(&join.pairs)),
                _ => None,
            };
            query_probes(&engine, probe, &pool, tracer, Some(layer));
            (a.id(), b.id(), probe, first_digest)
        });
    let joins: JoinLoop = own_or_token(
        tracer,
        root,
        "layer.msj-core.join_loop",
        matches!(
            workload,
            Workload::JoinRefineHeavy | Workload::JoinFilterHeavy
        ),
        duration,
        Duration::ZERO,
        |l: &JoinLoop| &l.latency_ns,
        |d, trace| join_loop(&engine, a, b, d, LAYER_REPS as usize, None, trace),
    );
    check.attempted += joins.latency_ns.len() as u64;
    check.failed += joins.failed;
    let oracle = oracle_join_digest(&inputs);
    check.expect(
        oracle.is_some() && first_digest == oracle && joins.digest == oracle,
        "engine join digest == independent oracle",
    );
    check.expect(
        Some(layered_digest) == oracle,
        "layer-by-layer response set == independent oracle",
    );

    // The store: register with write-through, cold opens, the floor.
    let relations = [inputs.a.clone(), inputs.b.clone()];
    let dir = out_dir.join(format!("store-{}", workload.name()));
    let ingest: IngestLoop = own_or_token(
        tracer,
        root,
        "layer.msj-store",
        workload == Workload::IngestReopen,
        duration,
        Duration::ZERO,
        |l: &IngestLoop| &l.open_ns,
        |d, trace| ingest_loop(&relations, &dir, &pool, d, None, trace),
    );
    check.attempted += ingest.attempted;
    check.failed += ingest.failed;
    let vertices: usize = relations
        .iter()
        .flat_map(|r| r.iter())
        .map(|o| o.num_vertices())
        .sum();
    tracer.count("store.input_bytes", 16.0 * vertices as f64, 0);

    // The wire front over the same engine.
    let targets = WireTargets {
        probe,
        join_a: a,
        join_b: b,
    };
    let server = Server::start(engine.clone(), ServeConfig::default())
        .expect("binding a loopback port for the in-process server");
    let addr = server.addr();
    let codec_request = WireRequest::point(7, probe, 500.0, 500.0);
    let codec_reply = encode_response(
        7,
        &response_body_for(&engine.submit(Request::Point {
            dataset: probe,
            point: Point::new(500.0, 500.0),
        })),
    );
    tracer.span("serve.codec", Some(root), 0, |_| {
        for _ in 0..CODEC_ITERATIONS {
            std::hint::black_box(encode_request(std::hint::black_box(&codec_request)));
            std::hint::black_box(decode_response(std::hint::black_box(&codec_reply[4..])).is_ok());
        }
    });
    let own_wire = workload == Workload::WireMixed;
    let warmup = if own_wire {
        Duration::from_secs_f64((seconds * 0.2).min(2.0))
    } else {
        Duration::from_millis(200)
    };
    let wire: WireLoop = own_or_token(
        tracer,
        root,
        "layer.msj-serve",
        own_wire,
        duration,
        Duration::from_secs(1),
        |l: &WireLoop| &l.probe_ns,
        |d, trace| wire_loop(addr, seed, targets, &pool, warmup, d, None, trace),
    );
    tracer.count(
        "serve.wire_req_per_s",
        wire.replies as f64 / wire.measured.as_secs_f64(),
        0,
    );
    check.attempted += wire.attempted;
    check.failed += wire.failed;
    let verdict = verify_wire(&engine, targets, &pool, &wire);
    check.attempted += 1;
    check.failed += verdict.mismatched;
    check.attempted += 100;
    check.failed += brute_force_mismatches(&engine, probe, &inputs.probe, &pool, 100);
    record_serve_metrics(tracer, addr, check);
    check.expect(stop(server), "server drained cleanly");

    [ingest.digest.unwrap_or(0), verdict.digest]
        .iter()
        .fold(oracle.unwrap_or(0), |digest, part| {
            fnv1a64_update(digest, &part.to_le_bytes())
        })
}

/// Every per-layer metric, from the trace file alone.
pub fn derive(file: &TraceFile, workload: Workload) -> (Vec<Measured>, Vec<String>) {
    let ops = workload.ops();
    let n = |span: &str| file.durations_ms(span).len();
    let us_p50 = |span: &str| file.median_ms(span) * 1e3;
    let mut values: Vec<(&str, f64, usize)> = Vec::new();

    // Counts recorded under the metric's own name.
    for name in [
        "sam.candidates",
        "sam.mbr_tests",
        "sam.page_accesses",
        "partition.candidates",
        "partition.replication_factor",
        "approx.raster_intervals_per_object",
        "core.exact_candidates",
        "exact.tests",
        "exact.hits",
        "exact.weighted_ops",
        "store.segment_bytes",
        "serve.wire_req_per_s",
        "serve.batch_mean_size",
        "serve.queue_wait_us_p50",
        "serve.queue_wait_us_p99",
        "serve.shed_total",
        "serve.frames_rejected_total",
        "trace.overhead_share",
    ] {
        values.push((name, file.count(name), 1));
    }
    // `<span>_ms`: the median over the span's repetitions…
    for name in [
        "sam.tree_join_ms",
        "partition.join_ms",
        "core.filter_ms",
        "core.filter_step2a_ms",
        "exact.intersects_ms",
        "exact.sweep_ms",
        "core.prepare_ms",
        "core.first_join_ms",
        "core.join_ms",
        "core.step1_ms",
        "core.step2_ms",
        "core.step2a_ms",
        "core.step3_ms",
        "store.open_ms",
        "store.read_checksum_floor_ms",
    ] {
        let span = name.trim_end_matches("_ms");
        values.push((name, file.median_ms(span), n(span)));
    }
    // …or, for Step-0 builds, the total over the join pair.
    for name in [
        "sam.bulk_load_ms",
        "approx.conservative_build_ms",
        "approx.progressive_build_ms",
        "approx.raster_build_ms",
        "exact.build_ms",
    ] {
        let span = name.trim_end_matches("_ms");
        values.push((name, file.sum_ms(span), n(span)));
    }

    let candidates = file.count("sam.candidates");
    let tests = file.count("exact.tests");
    let registers_ms = file.sum_ms("core.register");
    let layer_builds_ms = file.sum_ms("sam.bulk_load")
        + file.sum_ms("approx.conservative_build")
        + file.sum_ms("approx.progressive_build")
        + file.sum_ms("exact.build");
    let (open_ms, floor_ms) = (
        file.median_ms("store.open"),
        file.median_ms("store.read_checksum_floor"),
    );
    let (wire_probe_us, wire_join_ms) = (us_p50("wire.probe"), file.median_ms("wire.join"));
    let join_ms = file.median_ms("core.join");
    let layer_sum_ratio = (file.median_ms("sam.tree_join")
        + file.median_ms("core.filter")
        + file.median_ms("exact.intersects"))
        / join_ms;
    let own_op_ms = file.durations_ms(ops.op_span);
    values.extend([
        (
            "core.filter_ns_per_candidate",
            file.median_ms("core.filter") * 1e6 / candidates,
            n("core.filter"),
        ),
        (
            "core.raster_decided_share",
            file.count("core.filter_raster_decided") / candidates,
            1,
        ),
        (
            "core.filter_identified_share",
            file.count("core.filter_identified") / candidates,
            1,
        ),
        ("exact.hit_share", file.count("exact.hits") / tests, 1),
        (
            "exact.ns_per_test",
            file.median_ms("exact.intersects") * 1e6 / tests,
            n("exact.intersects"),
        ),
        (
            "core.register_ms",
            registers_ms + file.sum_ms("core.register_probe"),
            n("core.register") + n("core.register_probe"),
        ),
        (
            "core.engine_self_ms",
            median(&file.self_ms("core.join")),
            n("core.join"),
        ),
        // Differences of separately timed calls: within noise of zero
        // they can come out negative.
        (
            "core.register_self_ms",
            registers_ms - layer_builds_ms,
            n("core.register"),
        ),
        (
            "store.persist_ms",
            file.median_ms("store.register") - registers_ms,
            n("store.register"),
        ),
        (
            "core.point_query_us_p50",
            us_p50("core.point_query"),
            n("core.point_query"),
        ),
        (
            "core.window_query_us_p50",
            us_p50("core.window_query"),
            n("core.window_query"),
        ),
        (
            "store_bytes_per_input_byte",
            file.count("store.segment_bytes") / file.count("store.input_bytes"),
            1,
        ),
        ("store.repack_ms", open_ms - floor_ms, n("store.open")),
        (
            "store.open_over_floor_ratio",
            open_ms / floor_ms,
            n("store.open"),
        ),
        ("serve.wire_probe_us_p50", wire_probe_us, n("wire.probe")),
        ("serve.wire_join_ms_p50", wire_join_ms, n("wire.join")),
        (
            "serve.wire_overhead_us_p50",
            wire_probe_us - us_p50("core.point_query"),
            n("wire.probe"),
        ),
        (
            "serve.join_overhead_ms_p50",
            wire_join_ms - join_ms,
            n("wire.join"),
        ),
        (
            "serve.codec_ns_per_req",
            file.median_ms("serve.codec") * 1e6 / CODEC_ITERATIONS as f64,
            CODEC_ITERATIONS as usize,
        ),
        (
            "op_ms_tail",
            quantile(&own_op_ms, ops.tail.1),
            own_op_ms.len(),
        ),
        (
            "rare_op_ms_p50",
            ops.rare_op_spans.iter().map(|s| file.median_ms(s)).sum(),
            n(ops.rare_op_spans[0]),
        ),
        ("trace.layer_sum_ratio", layer_sum_ratio, n("core.join")),
    ]);

    let mut notes = Vec::new();
    if !(0.7..=1.2).contains(&layer_sum_ratio) {
        notes.push(format!(
            "warning: trace.layer_sum_ratio {layer_sum_ratio:.3} outside 0.7-1.2 (the separately \
             timed layers materialise candidates the engine streams)"
        ));
    }
    let metrics = PER_LAYER
        .iter()
        .map(|def| {
            let &(_, value, samples) = values
                .iter()
                .find(|(name, _, _)| *name == def.name)
                .unwrap_or_else(|| panic!("per-layer metric {} has no derivation", def.name));
            Measured {
                name: def.name,
                value,
                samples,
            }
        })
        .collect();
    (metrics, notes)
}

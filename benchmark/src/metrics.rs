//! The metric names this benchmark emits. `BENCHMARK.json` lists the
//! same names (the smoke test holds the two equal) and adds the bounds.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the system sees. Every workload reports every one;
/// `Workload::ops` says which operation `op_*` and `rare_op_*` time.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    lower("op_ms_p50", "ms"),
    higher("ops_per_s", "1/s"),
    lower("peak_rss_mb", "MB"),
];

/// One layer each, from the traced pass.
pub const PER_LAYER: &[MetricDef] = &[
    // msj-sam
    lower("sam.bulk_load_ms", "ms"),
    lower("sam.tree_join_ms", "ms"),
    lower("sam.candidates", "count"),
    lower("sam.mbr_tests", "count"),
    lower("sam.page_accesses", "count"),
    // msj-partition
    lower("partition.join_ms", "ms"),
    lower("partition.candidates", "count"),
    lower("partition.replication_factor", "ratio"),
    // msj-approx
    lower("approx.conservative_build_ms", "ms"),
    lower("approx.progressive_build_ms", "ms"),
    lower("approx.raster_build_ms", "ms"),
    lower("approx.raster_intervals_per_object", "count"),
    // msj-core filter
    lower("core.filter_ms", "ms"),
    lower("core.filter_step2a_ms", "ms"),
    lower("core.filter_ns_per_candidate", "ns"),
    higher("core.raster_decided_share", "ratio"),
    higher("core.filter_identified_share", "ratio"),
    lower("core.exact_candidates", "count"),
    // msj-exact
    lower("exact.build_ms", "ms"),
    lower("exact.intersects_ms", "ms"),
    lower("exact.tests", "count"),
    lower("exact.hits", "count"),
    higher("exact.hit_share", "ratio"),
    lower("exact.ns_per_test", "ns"),
    lower("exact.weighted_ops", "model_ms"),
    lower("exact.sweep_ms", "ms"),
    // msj-core engine
    lower("core.register_ms", "ms"),
    lower("core.prepare_ms", "ms"),
    lower("core.first_join_ms", "ms"),
    lower("core.join_ms", "ms"),
    lower("core.step1_ms", "ms"),
    lower("core.step2_ms", "ms"),
    lower("core.step2a_ms", "ms"),
    lower("core.step3_ms", "ms"),
    lower("core.engine_self_ms", "ms"),
    lower("core.register_self_ms", "ms"),
    lower("core.point_query_us_p50", "us"),
    lower("core.window_query_us_p50", "us"),
    // msj-store
    lower("store.segment_bytes", "B"),
    lower("store_bytes_per_input_byte", "B/B"),
    lower("store.persist_ms", "ms"),
    lower("store.open_ms", "ms"),
    lower("store.read_checksum_floor_ms", "ms"),
    lower("store.repack_ms", "ms"),
    lower("store.open_over_floor_ratio", "ratio"),
    // msj-serve
    higher("serve.wire_req_per_s", "1/s"),
    lower("serve.wire_probe_us_p50", "us"),
    lower("serve.wire_join_ms_p50", "ms"),
    lower("serve.wire_overhead_us_p50", "us"),
    lower("serve.join_overhead_ms_p50", "ms"),
    lower("serve.codec_ns_per_req", "ns"),
    higher("serve.batch_mean_size", "count"),
    lower("serve.queue_wait_us_p50", "us"),
    lower("serve.queue_wait_us_p99", "us"),
    lower("serve.shed_total", "count"),
    lower("serve.frames_rejected_total", "count"),
    // The workload's own operations in the traced pass (`Workload::ops`):
    // a fixed high percentile of `op`, and the median of the rare
    // operation. Both are user-visible, but too unsteady on the reference
    // box to carry a bound, so they are reported here, not end to end.
    lower("op_ms_tail", "ms"),
    lower("rare_op_ms_p50", "ms"),
    // the trace itself
    lower("trace.layer_sum_ratio", "ratio"),
    lower("trace.overhead_share", "ratio"),
];

/// One measured value and how many samples it summarises.
#[derive(Debug, Clone)]
pub struct Measured {
    pub name: &'static str,
    pub value: f64,
    pub samples: usize,
}

/// What one run of one workload produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Measured>,
    /// End-to-end runs: the uncalibrated values behind `metrics`, and the
    /// host slowdown they were divided by (`host.rs`).
    pub as_measured: Vec<(&'static str, f64)>,
    /// `fnv1a64` over the workload's canonically ordered answers.
    pub response_digest: u64,
    /// Lines for the human reader (warnings, tail percentile used).
    pub notes: Vec<String>,
}

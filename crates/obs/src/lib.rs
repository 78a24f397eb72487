//! Engine observability for the multi-step spatial join workspace.
//!
//! Everything here is built for the hot path of a resident
//! [`SpatialEngine`](../msj_core/struct.SpatialEngine.html): lock-free
//! atomic instruments cheap enough to be always-on, with the exporters
//! and per-request traces layered on top.
//!
//! * [`Counter`], [`Gauge`] — single relaxed atomics;
//! * [`Histogram`] — log₂-bucketed value distribution (65 fixed
//!   buckets covering all of `u64`) with `p50`/`p90`/`p99` quantiles
//!   and an exact observed maximum, recordable from any number of
//!   threads without locks;
//! * [`MetricsRegistry`] — named instruments with `{label="value"}`
//!   keys, an [`EngineSnapshot`] reader, a schema-versioned
//!   [`MetricsRegistry::snapshot_json`] exporter and a Prometheus-style
//!   [`MetricsRegistry::render_prometheus`] text rendering;
//! * [`Span`], [`StepSpans`] — per-step wall-clock accumulation shared
//!   across fused sink threads;
//! * [`Trace`], [`TraceRing`] — an opt-in bounded ring of recent
//!   per-request traces with the Step 0–3 breakdown;
//! * [`WorkerTelemetry`], [`WorkerLane`] — per-run counters (pairs,
//!   batches, largest batch) for the Step-1 producer and for every
//!   Steps-2–3 sink, which make fused-worker imbalance visible.
//!
//! The crate deliberately depends on nothing but `std`; the layers that
//! record into it (`msj-core`, `msj-serve`) sit above everything Step 1
//! is built from.

mod metrics;
mod registry;
mod span;
mod trace;
mod worker;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, HISTOGRAM_BUCKETS};
pub use registry::{metric_key, EngineSnapshot, MetricsRegistry, SNAPSHOT_SCHEMA};
pub use span::{Span, Step, StepSpans};
pub use trace::{Trace, TraceRing, TraceSteps};
pub use worker::{LaneRole, WorkerLane, WorkerLaneSnapshot, WorkerTelemetry};

/// Observability policy carried by a join configuration: whether the
/// engine records metrics at all, and how many recent request traces to
/// retain.
///
/// The default is metrics **on** (the instruments are a handful of
/// relaxed atomic operations per batch, not per pair) with tracing
/// **off**. [`ObsConfig::disabled`] turns the whole layer off — the
/// execution paths then skip even the clock reads, which is what the
/// instrumentation-overhead guard in the bench compares against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Record metrics and step timings (default `true`).
    pub enabled: bool,
    /// Recent request traces to retain (`0` = tracing off, the default).
    pub trace_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            enabled: true,
            trace_capacity: 0,
        }
    }
}

impl ObsConfig {
    /// Metrics, step timing and tracing all off: the engine records
    /// nothing and skips the clock reads on the hot path.
    pub fn disabled() -> Self {
        ObsConfig {
            enabled: false,
            trace_capacity: 0,
        }
    }

    /// Metrics on plus a ring of the `capacity` most recent request
    /// traces.
    pub fn with_traces(capacity: usize) -> Self {
        ObsConfig {
            enabled: true,
            trace_capacity: capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_presets() {
        let default = ObsConfig::default();
        assert!(default.enabled);
        assert_eq!(default.trace_capacity, 0);
        let off = ObsConfig::disabled();
        assert!(!off.enabled);
        let traced = ObsConfig::with_traces(16);
        assert!(traced.enabled);
        assert_eq!(traced.trace_capacity, 16);
    }
}

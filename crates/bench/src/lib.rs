//! # msj-bench — the reproduction harness
//!
//! Regenerates every table and figure of the paper's evaluation section.
//! The `repro` binary dispatches on [`experiments::registry`]; Criterion
//! micro-benchmarks live under `benches/`.
//!
//! ```text
//! cargo run -p msj-bench --release --bin repro -- all
//! cargo run -p msj-bench --release --bin repro -- table7 --scale quick
//! ```

pub mod baseline;
pub mod data;
pub mod experiments;
pub mod jsonout;
pub mod report;
mod timing;

pub use baseline::collect_then_chunk_join;
pub use data::SeriesData;
pub use experiments::{registry, ExpConfig, Experiment, Scale};
pub use jsonout::{bench_json, bench_json_only};

/// Step 0 once, outside any timed region: the owned prepared join of
/// `a` with `b` under `config`, so Steps 1–3 can be timed alone.
pub fn prepare(
    config: msj_core::JoinConfig,
    a: &msj_geom::Relation,
    b: &msj_geom::Relation,
) -> std::sync::Arc<msj_core::PreparedJoin> {
    let engine = msj_core::SpatialEngine::new(config);
    let (a, b) = (engine.register(a.clone()), engine.register(b.clone()));
    engine.prepare_join(&a, &b)
}

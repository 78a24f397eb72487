//! # msj-bench — the paper's tables, regenerated
//!
//! Prints every table and figure of the paper's evaluation section as
//! plain text, plus two engine tables the repository benchmark cannot
//! produce because it pins one CPU and has no per-dispatch metric:
//! `fused` (serial vs `Execution::Fused`) and `kernels` (scalar / AVX2). The `repro` binary dispatches on [`experiments::registry`].
//! Numbers that are compared across commits come from `benchmark/`, not
//! from here.
//!
//! ```text
//! cargo run -p msj-bench --release --bin repro -- all
//! cargo run -p msj-bench --release --bin repro -- table7 --scale quick
//! ```

pub mod data;
pub mod experiments;
pub mod report;
mod timing;

pub use data::SeriesData;
pub use experiments::{registry, ExpConfig, Experiment, Scale};

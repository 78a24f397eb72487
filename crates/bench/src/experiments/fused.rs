//! The `fused` experiment: Steps 1–3 wall-clock of the fused execution
//! engine against the serial pipeline, on an even cartographic workload
//! and a deliberately skewed one, across both Step-1 backends — the only
//! instrument for `Execution::Fused` (`benchmark/` pins one CPU).
//!
//! Step 0 (preprocessing, the paper's "insertion time") is paid once per
//! backend (an owned `msj_core::PreparedJoin`) and reported
//! separately — the executors differ only in how they schedule Steps
//! 1–3, so that is what the table times.
//!
//! Beyond wall-clock, the experiment *verifies the engine's contract* on
//! every measured cell: identical canonically-sorted response sets,
//! exactly-merged operation counts, and a candidate buffer under
//! `fused_buffer_bound`.

use super::ExpConfig;
use crate::report::{f, section, Table};
use crate::timing::timed;
use msj_core::{Backend, Execution, JoinConfig, JoinResult, SpatialEngine};
use msj_geom::Relation;
use std::time::Instant;

/// Thread counts swept for the parallel executors.
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// `(name, a, b)`: an even cartographic pair and a skewed one.
fn workloads(cfg: &ExpConfig) -> [(&'static str, Relation, Relation); 2] {
    let (n, seed) = (cfg.large_count() / 2, cfg.seed);
    let even = msj_datagen::small_carto;
    let skewed = msj_datagen::skewed_carto;
    [
        ("carto", even(n, 24.0, seed), even(n, 24.0, seed + 1)),
        ("skewed", skewed(n, 24.0, seed), skewed(n, 24.0, seed + 1)),
    ]
}

/// The R*-tree traversal and the machine-sized grid swept on one thread.
fn backends() -> [(&'static str, Backend); 2] {
    let Backend::PartitionedSweep { tiles_per_axis, .. } = Backend::partitioned_auto() else {
        unreachable!("partitioned_auto is partitioned");
    };
    let grid = Backend::PartitionedSweep {
        tiles_per_axis,
        threads: 1,
    };
    [("rstar", Backend::RStarTraversal), ("grid", grid)]
}

/// Asserts the agreement contract between one fused result and the
/// serial reference, and the fan-out's cap on resident candidates.
fn check_agreement(label: &str, reference: &JoinResult, got: &JoinResult, buffer_bound: u64) {
    let mut expect = reference.pairs.clone();
    expect.sort_unstable();
    assert_eq!(got.pairs, expect, "{label}: response set diverged");
    assert_eq!(
        got.stats.exact_ops, reference.stats.exact_ops,
        "{label}: operation counts diverged"
    );
    assert_eq!(
        got.stats.exact_tests, reference.stats.exact_tests,
        "{label}"
    );
    assert!(
        got.stats.peak_buffered_candidates <= buffer_bound,
        "{label}: peak buffer {} over the bound {buffer_bound}",
        got.stats.peak_buffered_candidates,
    );
}

/// The `fused` experiment: Steps 1–3 wall-clock and peak-buffer
/// comparison of serial vs fused execution.
pub fn fused(cfg: &ExpConfig) -> String {
    let mut out = section("fused", "execution engine: serial vs fused (Steps 1-3)");
    out.push_str(
        "join ms covers Steps 1-3 only (Step-0 preprocessing is paid once per\n\
         backend and shown in the prep column of the serial row); buffered is the\n\
         peak candidate count resident between Step 1 and the filter/exact steps\n\
         (0 when serial; the fused fan-out's one queue feeds both backends and is\n\
         bounded by fused_buffer_bound)\n\n",
    );

    let mut table = Table::new([
        "workload",
        "backend",
        "mode",
        "threads",
        "join ms",
        "vs serial x",
        "buffered",
    ]);
    let mut step_lines = Vec::new();
    for (workload, rel_a, rel_b) in &workloads(cfg) {
        for (backend_name, backend) in backends() {
            let config = JoinConfig::builder().backend(backend).build();
            let prep_start = Instant::now();
            let engine = SpatialEngine::new(config);
            let (a, b) = (
                engine.register(rel_a.clone()),
                engine.register(rel_b.clone()),
            );
            let prepared = engine.prepare_join(&a, &b);
            let prep_secs = prep_start.elapsed().as_secs_f64();
            // Warm-up run (fills the R*-traversal's simulated LRU
            // buffer) so every timed mode sees the same state.
            let _ = prepared.run_with(Execution::Serial);
            let (serial, serial_secs) = timed(|| prepared.run_with(Execution::Serial));
            step_lines.push(format!(
                "{workload}/{backend_name} serial steps ms: step0 {:.1} | step1 {:.1} | step2 (filter) {:.1} | step3 (exact) {:.1}",
                serial.stats.step0_nanos as f64 / 1e6,
                serial.stats.step1_nanos as f64 / 1e6,
                serial.stats.step2_nanos as f64 / 1e6,
                serial.stats.step3_nanos as f64 / 1e6,
            ));
            table.row([
                workload.to_string(),
                backend_name.into(),
                format!("serial (prep {:.0} ms)", prep_secs * 1e3),
                "1".into(),
                f(serial_secs * 1e3, 2),
                f(1.0, 2),
                serial.stats.peak_buffered_candidates.to_string(),
            ]);
            for threads in THREADS {
                let (fused, fused_secs) = timed(|| prepared.run_with(Execution::Fused { threads }));
                check_agreement(
                    &format!("{workload}/{backend_name} x{threads}"),
                    &serial,
                    &fused,
                    msj_core::fused_buffer_bound(threads, config.batch_pairs),
                );
                table.row([
                    workload.to_string(),
                    backend_name.into(),
                    "fused".into(),
                    threads.to_string(),
                    f(fused_secs * 1e3, 2),
                    f(serial_secs / fused_secs.max(1e-12), 2),
                    fused.stats.peak_buffered_candidates.to_string(),
                ]);
            }
        }
    }
    out.push_str(&table.render());
    out.push('\n');
    for line in &step_lines {
        out.push_str(line);
        out.push('\n');
    }
    out.push_str(
        "\nagreement: every measured cell produced the identical canonically-sorted\n\
         response set and exactly-merged operation counts as the serial pipeline,\n\
         with the fused candidate buffer under fused_buffer_bound\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::Scale;

    #[test]
    fn fused_report_runs_at_quick_scale() {
        let cfg = ExpConfig {
            seed: 3,
            scale: Scale::Quick,
        };
        let report = fused(&cfg);
        assert!(report.contains("skewed"));
        assert!(report.contains("fused"));
        assert!(report.contains("step2 (filter)"));
        assert!(report.contains("identical canonically-sorted"));
    }
}

//! The `fused` experiment: Steps 1–3 wall-clock comparison of the fused
//! execution engine against the PR-1 collect-then-chunk executor
//! ([`crate::baseline`]) and the serial pipeline, on an even
//! cartographic workload and a deliberately skewed one, across both
//! Step-1 backends.
//!
//! Step 0 (preprocessing, the paper's "insertion time") is paid once per
//! backend (an owned `msj_core::PreparedJoin`) and reported
//! separately — the executors differ only in how they schedule Steps
//! 1–3, so that is what the table times.
//!
//! Beyond wall-clock, the experiment *verifies the engine's contract* on
//! every measured cell: identical canonically-sorted response sets,
//! exactly-merged operation counts, and a bounded candidate buffer (the
//! baseline materializes the entire candidate set; the fused engine
//! never does).

use super::ExpConfig;
use crate::baseline::PreparedBaseline;
use crate::report::{f, section, Table};
use crate::timing::timed;
use msj_core::{Backend, Execution, JoinConfig, JoinResult};
use msj_geom::Relation;
use std::time::Instant;

/// Thread counts swept for the parallel executors.
const THREADS: [usize; 4] = [1, 2, 4, 8];

struct Workload {
    name: String,
    a: Relation,
    b: Relation,
}

fn workloads(cfg: &ExpConfig) -> Vec<Workload> {
    let n = cfg.large_count() / 2;
    vec![
        Workload {
            name: "carto".into(),
            a: msj_datagen::small_carto(n, 24.0, cfg.seed),
            b: msj_datagen::small_carto(n, 24.0, cfg.seed + 1),
        },
        Workload {
            name: "skewed".into(),
            a: msj_datagen::skewed_carto(n, 24.0, cfg.seed),
            b: msj_datagen::skewed_carto(n, 24.0, cfg.seed + 1),
        },
    ]
}

fn backends() -> [(&'static str, Backend); 2] {
    let tiles = match Backend::partitioned_auto() {
        Backend::PartitionedSweep { tiles_per_axis, .. } => tiles_per_axis,
        Backend::RStarTraversal => unreachable!("partitioned_auto is partitioned"),
    };
    [
        ("rstar", Backend::RStarTraversal),
        (
            "grid",
            Backend::PartitionedSweep {
                tiles_per_axis: tiles,
                threads: 1,
            },
        ),
    ]
}

/// Asserts the agreement contract between one measured result and the
/// serial reference; `buffer_bound` additionally caps the resident
/// candidate count (the fused engine's per-worker guarantee).
fn check_agreement(
    label: &str,
    reference: &JoinResult,
    got: &JoinResult,
    buffer_bound: Option<u64>,
) {
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
    if let Some(bound) = buffer_bound {
        assert!(
            got.stats.peak_buffered_candidates <= bound,
            "{label}: peak buffer {} over the per-worker bound {bound}",
            got.stats.peak_buffered_candidates,
        );
    }
}

/// The `fused` experiment: Steps 1–3 wall-clock and peak-buffer
/// comparison of serial vs collect-then-chunk vs fused execution.
pub fn fused(cfg: &ExpConfig) -> String {
    let mut out = section(
        "fused",
        "execution engine: serial vs collect-then-chunk vs fused (Steps 1-3)",
    );
    out.push_str(
        "join ms covers Steps 1-3 only (Step-0 preprocessing is paid once per\n\
         backend and shown in the prep column of the serial row); buffered is the\n\
         peak candidate count resident between Step 1 and the filter/exact steps\n\
         (the collect-then-chunk baseline materializes every candidate; the fused\n\
         engine is bounded per worker and streams the partitioned backend outright)\n\n",
    );

    let mut table = Table::new([
        "workload",
        "backend",
        "mode",
        "threads",
        "join ms",
        "vs serial x",
        "vs baseline x",
        "buffered",
    ]);
    let mut fused_vs_baseline_at4 = Vec::new();
    let mut batch_vs_perpair_at4 = Vec::new();
    let mut step_lines = Vec::new();
    for workload in &workloads(cfg) {
        for (backend_name, backend) in backends() {
            let base = JoinConfig::builder().backend(backend).build();
            let prep_start = Instant::now();
            let prepared = crate::prepare(base, &workload.a, &workload.b);
            let prep_secs = prep_start.elapsed().as_secs_f64();
            // The PR-2-shaped protocol: everything identical except the
            // candidate batch size — per-pair delivery and per-pair
            // classification dispatch.
            let per_pair = base.to_builder().batch_pairs(1).build();
            let per_pair_prepared = crate::prepare(per_pair, &workload.a, &workload.b);
            // Warm-up run (fills the R*-traversal's simulated LRU
            // buffer) so every timed mode sees the same state.
            let _ = prepared.run_with(Execution::Serial);
            let _ = per_pair_prepared.run_with(Execution::Serial);
            let (serial, serial_secs) = timed(|| prepared.run_with(Execution::Serial));
            step_lines.push(format!(
                "{}/{backend_name} serial steps ms: step0 {:.1} | step1 {:.1} | step2 (filter) {:.1} | step3 (exact) {:.1}",
                workload.name,
                serial.stats.step0_nanos as f64 / 1e6,
                serial.stats.step1_nanos as f64 / 1e6,
                serial.stats.step2_nanos as f64 / 1e6,
                serial.stats.step3_nanos as f64 / 1e6,
            ));
            table.row([
                workload.name.clone(),
                backend_name.into(),
                format!("serial (prep {:.0} ms)", prep_secs * 1e3),
                "1".into(),
                f(serial_secs * 1e3, 2),
                f(1.0, 2),
                "-".into(),
                serial.stats.peak_buffered_candidates.to_string(),
            ]);
            for threads in THREADS {
                let label = format!("{}/{backend_name} x{threads}", workload.name);
                let mut baseline_prepared =
                    PreparedBaseline::new(&workload.a, &workload.b, &base, threads);
                let _ = baseline_prepared.run(); // warm-up, as above
                let (baseline, baseline_secs) = timed(|| baseline_prepared.run());
                // The baseline materializes the entire candidate set.
                assert_eq!(
                    baseline.stats.peak_buffered_candidates, baseline.stats.mbr_join.candidates,
                    "{label}: baseline must materialize"
                );
                let (fused, fused_secs) = timed(|| prepared.run_with(Execution::Fused { threads }));
                let (unbatched, unbatched_secs) =
                    timed(|| per_pair_prepared.run_with(Execution::Fused { threads }));
                check_agreement(
                    &label,
                    &serial,
                    &fused,
                    Some(msj_core::fused_buffer_bound(threads, base.batch_pairs)),
                );
                check_agreement(&label, &serial, &baseline, None);
                check_agreement(
                    &label,
                    &serial,
                    &unbatched,
                    Some(msj_core::fused_buffer_bound(threads, 1)),
                );
                let vs_baseline = baseline_secs / fused_secs.max(1e-12);
                if threads == 4 {
                    fused_vs_baseline_at4
                        .push((format!("{}/{backend_name}", workload.name), vs_baseline));
                    batch_vs_perpair_at4.push((
                        format!("{}/{backend_name}", workload.name),
                        unbatched_secs / fused_secs.max(1e-12),
                    ));
                }
                table.row([
                    workload.name.clone(),
                    backend_name.into(),
                    "collect-chunk".into(),
                    threads.to_string(),
                    f(baseline_secs * 1e3, 2),
                    f(serial_secs / baseline_secs.max(1e-12), 2),
                    f(1.0, 2),
                    baseline.stats.peak_buffered_candidates.to_string(),
                ]);
                table.row([
                    workload.name.clone(),
                    backend_name.into(),
                    "fused (batch=1)".into(),
                    threads.to_string(),
                    f(unbatched_secs * 1e3, 2),
                    f(serial_secs / unbatched_secs.max(1e-12), 2),
                    f(baseline_secs / unbatched_secs.max(1e-12), 2),
                    unbatched.stats.peak_buffered_candidates.to_string(),
                ]);
                table.row([
                    workload.name.clone(),
                    backend_name.into(),
                    "fused".into(),
                    threads.to_string(),
                    f(fused_secs * 1e3, 2),
                    f(serial_secs / fused_secs.max(1e-12), 2),
                    f(vs_baseline, 2),
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
         with the fused candidate buffer under its per-worker bound\n",
    );
    let line = fused_vs_baseline_at4
        .iter()
        .map(|(name, s)| format!("{name} {s:.2}x"))
        .collect::<Vec<_>>()
        .join(", ");
    out.push_str(&format!(
        "fused vs collect-then-chunk at 4 threads: {line}\n"
    ));
    let line = batch_vs_perpair_at4
        .iter()
        .map(|(name, s)| format!("{name} {s:.2}x"))
        .collect::<Vec<_>>()
        .join(", ");
    out.push_str(&format!(
        "batched vs per-pair (batch=1) delivery at 4 threads: {line}\n"
    ));
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
        assert!(report.contains("collect-chunk"));
        assert!(report.contains("fused"));
        assert!(report.contains("fused (batch=1)"));
        assert!(report.contains("step2 (filter)"));
        assert!(report.contains("batched vs per-pair"));
        assert!(report.contains("identical canonically-sorted"));
    }
}

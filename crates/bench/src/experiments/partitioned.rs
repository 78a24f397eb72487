//! Step-1 backend comparison: the paper's synchronized R*-tree traversal
//! vs the partitioned parallel plane sweep of `msj-partition`, across the
//! datagen workload shapes (the four §3.1 test series, a holed-relation
//! workload, and the §3.4/§5 bulk relations).
//!
//! Beyond the throughput table, the experiment *verifies agreement*: both
//! backends must produce the identical response set through the full
//! pipeline on every workload.

use super::ExpConfig;
use crate::report::{f, section, Table};
use msj_core::{join_source, Backend, JoinConfig, MultiStepJoin};
use msj_geom::Relation;
use std::time::Instant;

/// Thread counts swept for the partitioned backend.
const THREADS: [usize; 4] = [1, 2, 4, 8];

struct Workload {
    name: String,
    a: Relation,
    b: Relation,
}

fn workloads(cfg: &ExpConfig) -> Vec<Workload> {
    let mut out: Vec<Workload> = cfg
        .all_series()
        .into_iter()
        .map(|s| Workload {
            name: s.name.clone(),
            a: s.a,
            b: s.b,
        })
        .collect();
    let holed = |seed: u64| msj_datagen::carto_with_holes(cfg.large_count() / 4, 24.0, seed);
    out.push(Workload {
        name: "holed".into(),
        a: holed(cfg.seed),
        b: holed(cfg.seed + 1),
    });
    out.push(Workload {
        name: "bulk".into(),
        a: msj_datagen::large_relation(cfg.large_count(), 0, cfg.seed),
        b: msj_datagen::large_relation(cfg.large_count(), 1, cfg.seed),
    });
    out
}

/// Times one full Step-1 execution (source construction + candidate
/// streaming); returns `(step-1 stats, seconds)`.
fn time_step1(config: &JoinConfig, a: &Relation, b: &Relation) -> (msj_core::Step1Stats, f64) {
    let start = Instant::now();
    let source = join_source(config, a, b);
    let mut count = 0u64;
    let stats = source.stream_candidates(&mut |_, _| count += 1);
    let secs = start.elapsed().as_secs_f64();
    debug_assert_eq!(stats.join.candidates, count);
    (stats, secs)
}

/// The `partitioned` experiment: Step-1 candidates/sec for the R*-tree
/// traversal vs the partitioned sweep at 1/2/4/8 threads, plus a full
/// pipeline agreement check per workload.
pub fn partitioned(cfg: &ExpConfig) -> String {
    let mut out = section(
        "partitioned",
        "step-1 backends: R*-tree traversal vs partitioned parallel sweep",
    );
    let tiles = match Backend::partitioned_auto() {
        Backend::PartitionedSweep { tiles_per_axis, .. } => tiles_per_axis,
        Backend::RStarTraversal => unreachable!("partitioned_auto is partitioned"),
    };
    out.push_str(&format!(
        "grid: {tiles}x{tiles} tiles; candidates/sec covers the full step-1 execution\n\
         (index/grid construction + candidate streaming), averaged per workload\n\n",
    ));

    let mut table = Table::new([
        "workload",
        "backend",
        "candidates",
        "step-1 ms",
        "cand/s",
        "vs R* x",
        "busiest tile",
        "repl.",
    ]);
    let mut speedup_at_4 = Vec::new();
    let workloads = workloads(cfg);
    for workload in &workloads {
        let rstar_config = JoinConfig::default();
        let (rstar_stats, rstar_secs) = time_step1(&rstar_config, &workload.a, &workload.b);
        let candidates = rstar_stats.join.candidates;
        table.row([
            workload.name.clone(),
            "rstar (STR)".into(),
            candidates.to_string(),
            f(rstar_secs * 1e3, 2),
            f(candidates as f64 / rstar_secs.max(1e-12), 0),
            f(1.0, 2),
            "-".into(),
            "-".into(),
        ]);
        for threads in THREADS {
            let config = JoinConfig::builder()
                .backend(Backend::PartitionedSweep {
                    tiles_per_axis: tiles,
                    threads,
                })
                .build();
            let (part_stats, part_secs) = time_step1(&config, &workload.a, &workload.b);
            let part_candidates = part_stats.join.candidates;
            assert_eq!(
                part_candidates, candidates,
                "{}: candidate sets must agree in size",
                workload.name
            );
            let summary = part_stats.partition.expect("partition summary");
            let speedup = rstar_secs / part_secs.max(1e-12);
            if threads == 4 {
                speedup_at_4.push((workload.name.clone(), speedup));
            }
            table.row([
                workload.name.clone(),
                format!("partitioned x{threads}"),
                part_candidates.to_string(),
                f(part_secs * 1e3, 2),
                f(part_candidates as f64 / part_secs.max(1e-12), 0),
                f(speedup, 2),
                summary.busiest_tile_candidates.to_string(),
                f(summary.replication_factor, 2),
            ]);
        }
    }
    out.push_str(&table.render());

    // Full-pipeline agreement: identical response sets on every workload.
    let mut agreements = 0usize;
    for workload in &workloads {
        let serial = MultiStepJoin::new(JoinConfig::default()).execute(&workload.a, &workload.b);
        let mut expect = serial.pairs;
        expect.sort_unstable();
        let config = JoinConfig::builder()
            .backend(Backend::PartitionedSweep {
                tiles_per_axis: tiles,
                threads: 0,
            })
            .build();
        let mut got = MultiStepJoin::new(config)
            .execute(&workload.a, &workload.b)
            .pairs;
        got.sort_unstable();
        assert_eq!(got, expect, "{}: pipelines disagree", workload.name);
        agreements += 1;
    }
    out.push_str(&format!(
        "\nagreement: {agreements}/{agreements} workloads produce identical response sets\n",
    ));
    let line = speedup_at_4
        .iter()
        .map(|(name, s)| format!("{name} {s:.2}x"))
        .collect::<Vec<_>>()
        .join(", ");
    out.push_str(&format!("step-1 speedup at 4 threads: {line}\n"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::Scale;

    #[test]
    fn partitioned_report_runs_at_quick_scale() {
        let cfg = ExpConfig {
            seed: 3,
            scale: Scale::Quick,
        };
        let report = partitioned(&cfg);
        assert!(report.contains("rstar (STR)"));
        assert!(report.contains("partitioned x4"));
        assert!(report.contains("identical response sets"));
    }
}

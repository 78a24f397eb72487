//! The `raster` experiment: the Step-2a raster-interval pre-filter swept
//! over grid resolutions against the stage turned off.
//!
//! For each cell the experiment reports how much of the MBR-join
//! candidate stream the stage decided before the convex/MER columns were
//! touched (hit/drop/inconclusive), what the stage cost (`step2a` inside
//! `step2`), and the end-to-end Steps-1–3 wall-clock — on the even and
//! skewed cartographic workloads.
//!
//! Every cell's canonically sorted response set is digested (FNV-1a) and
//! compared against the raster-off reference: **any divergence panics**,
//! which is exactly what the CI smoke step relies on.

use super::ExpConfig;
use crate::report::{f, pct, section, Table};
use crate::timing::timed;
use msj_core::{Execution, JoinConfig, RasterConfig};
use msj_geom::{ObjectId, Relation};
use std::time::Instant;

/// The grid-resolution sweep both this experiment and the
/// machine-readable bench (`crate::jsonout`) measure — one definition so
/// the two matrices cannot drift apart.
pub(crate) const SWEEP: [(&str, RasterConfig); 5] = [
    ("off", RasterConfig::off()),
    ("auto", RasterConfig::with_bits(0)),
    ("b6", RasterConfig::with_bits(6)),
    ("b8", RasterConfig::with_bits(8)),
    ("b10", RasterConfig::with_bits(10)),
];

/// The grid resolution a config actually runs at on this workload
/// (auto-sized cells resolve through [`msj_approx::auto_grid_bits`]).
pub(crate) fn resolved_grid_bits(raster: RasterConfig, a: &Relation, b: &Relation) -> u32 {
    if raster.grid_bits == 0 {
        msj_approx::auto_grid_bits(a, b)
    } else {
        raster.grid_bits
    }
}

/// FNV-1a over the canonically sorted response set — the digest the CI
/// smoke step compares between raster-on and raster-off cells.
pub fn response_digest(pairs: &[(ObjectId, ObjectId)]) -> u64 {
    let mut sorted = pairs.to_vec();
    sorted.sort_unstable();
    let mut h: u64 = 0xcbf29ce484222325;
    for (a, b) in sorted {
        for byte in a.to_le_bytes().into_iter().chain(b.to_le_bytes()) {
            h ^= byte as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

fn workloads(cfg: &ExpConfig) -> Vec<(String, Relation, Relation)> {
    let n = cfg.large_count() / 2;
    vec![
        (
            "carto".into(),
            msj_datagen::small_carto(n, 24.0, cfg.seed),
            msj_datagen::small_carto(n, 24.0, cfg.seed + 1),
        ),
        (
            "skewed".into(),
            msj_datagen::skewed_carto(n, 24.0, cfg.seed),
            msj_datagen::skewed_carto(n, 24.0, cfg.seed + 1),
        ),
    ]
}

/// The `raster` experiment (see the module docs).
pub fn raster(cfg: &ExpConfig) -> String {
    let mut out = section(
        "raster",
        "step-2a raster pre-filter: grid_bits sweep vs raster-off",
    );
    out.push_str(
        "decided = candidates the stage proved (hit or drop) before any convex/MER\n\
         column was touched; step2a ms is the stage's share of the filter time\n\
         (summed across workers); join ms covers Steps 1-3 fused x4; every cell's\n\
         response digest must equal the raster-off reference (asserted)\n\n",
    );

    let mut table = Table::new([
        "workload",
        "cell",
        "prep ms",
        "join ms",
        "decided",
        "hit %",
        "drop %",
        "incon %",
        "step2a ms",
        "step2 ms",
        "exact tests",
    ]);
    let mut decided_auto: Vec<String> = Vec::new();
    for (name, a, b) in &workloads(cfg) {
        let mut reference: Option<u64> = None;
        for (cell, raster) in SWEEP {
            let config = JoinConfig::builder().raster(raster).build();
            let t_prep = Instant::now();
            let prepared = crate::prepare(config, a, b);
            let prep_ms = t_prep.elapsed().as_secs_f64() * 1e3;
            let _ = prepared.run_with(Execution::Fused { threads: 4 });
            let (result, secs) = timed(|| prepared.run_with(Execution::Fused { threads: 4 }));
            let digest = response_digest(&result.pairs);
            match reference {
                None => reference = Some(digest),
                Some(expect) => assert_eq!(
                    digest, expect,
                    "{name}/{cell}: response-set digest diverged from raster-off"
                ),
            }
            let s = &result.stats;
            let cands = s.mbr_join.candidates.max(1) as f64;
            table.row([
                name.clone(),
                cell.into(),
                f(prep_ms, 1),
                f(secs * 1e3, 1),
                pct(s.raster_decided_fraction()),
                pct(s.raster_hits as f64 / cands),
                pct(s.raster_drops as f64 / cands),
                pct(s.raster_inconclusive as f64 / cands),
                f(s.step2a_nanos as f64 / 1e6, 2),
                f(s.step2_nanos as f64 / 1e6, 2),
                format!("{}", s.exact_tests),
            ]);
            if cell == "auto" {
                decided_auto.push(format!(
                    "{name}: auto grid (2^{} cells/axis) decided {} of {} candidates ({})",
                    resolved_grid_bits(raster, a, b),
                    s.raster_hits + s.raster_drops,
                    s.mbr_join.candidates,
                    pct(s.raster_decided_fraction())
                ));
            }
        }
    }
    out.push_str(&table.render());
    out.push('\n');
    for line in decided_auto {
        out.push_str(&line);
        out.push('\n');
    }
    out.push_str("all cells agreed with the raster-off response digest\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::Scale;

    #[test]
    fn raster_experiment_runs_and_reports_decisions() {
        let cfg = ExpConfig {
            seed: 5,
            scale: Scale::Quick,
        };
        let report = raster(&cfg);
        assert!(report.contains("raster"));
        assert!(report.contains("auto"));
        assert!(report.contains("all cells agreed"));
    }

    #[test]
    fn digest_is_order_invariant_and_content_sensitive() {
        let fwd = response_digest(&[(1, 2), (3, 4)]);
        let rev = response_digest(&[(3, 4), (1, 2)]);
        assert_eq!(fwd, rev);
        assert_ne!(fwd, response_digest(&[(1, 2)]));
        assert_ne!(fwd, response_digest(&[(1, 2), (3, 5)]));
    }
}

//! Join tuning: sweep the configuration space of the multi-step join
//! (conservative kind × progressive kind × exact algorithm) on one
//! workload and rank the combinations by modeled total cost — the
//! experiment a practitioner would run to pick a configuration for their
//! data.
//!
//! The ranking is the paper's §5 model, priced in its 1994 page and
//! TR*-test costs, and it puts a tight conservative approximation near
//! the top. `JoinConfig::default()` stores none: measured on this
//! engine's clock, behind the raster stage the 5-corner test costs more
//! Step-2 time than the Step-3 tests it spares.
//!
//! ```text
//! cargo run --release --example join_tuning
//! ```

use msj::approx::{ConservativeKind, ProgressiveKind};
use msj::core::{figure18_cost, CostModelParams, ExactCostKind, JoinConfig, MultiStepJoin};
use msj::exact::ExactAlgorithm;

fn main() {
    let a = msj::datagen::small_carto(150, 40.0, 2024);
    let b = msj::datagen::small_carto(150, 40.0, 2025);
    println!(
        "workload: {} x {} objects, avg {:.0} vertices\n",
        a.len(),
        b.len(),
        a.vertex_stats().0
    );

    let conservatives = [
        None,
        Some(ConservativeKind::Rmbr),
        Some(ConservativeKind::FiveCorner),
        Some(ConservativeKind::ConvexHull),
    ];
    let progressives = [None, Some(ProgressiveKind::Mec), Some(ProgressiveKind::Mer)];
    let exacts = [
        (
            ExactAlgorithm::PlaneSweep { restrict: true },
            ExactCostKind::PlaneSweep,
        ),
        (
            // The paper's M = 3: this ranking uses the paper's cost
            // model, whose operation counts 3 minimises. The engine's
            // default capacity (6) was chosen by the clock instead.
            ExactAlgorithm::TrStar { max_entries: 3 },
            ExactCostKind::TrStar,
        ),
    ];

    let params = CostModelParams::default();
    let mut rows: Vec<(f64, String, u64, u64)> = Vec::new();
    let mut reference: Option<usize> = None;
    for conservative in conservatives {
        for progressive in progressives {
            for (exact, cost_kind) in exacts {
                let config = JoinConfig::builder()
                    .conservative(conservative)
                    .progressive(progressive)
                    .exact(exact)
                    .build();
                let result = MultiStepJoin::new(config).execute(&a, &b);
                match reference {
                    None => reference = Some(result.pairs.len()),
                    Some(r) => {
                        assert_eq!(r, result.pairs.len(), "result must not depend on config")
                    }
                }
                // The engine keeps no page buffer: every Step-1 node
                // visit is priced as a page access.
                let visits = result.stats.mbr_join.io.logical;
                let cost = figure18_cost(&result.stats, visits, cost_kind, &params).total_s();
                let name = format!(
                    "{:<5} + {:<4} + {}",
                    conservative.map_or("none", |k| k.name()),
                    progressive.map_or("none", |k| k.name()),
                    exact.name(),
                );
                rows.push((
                    cost,
                    name,
                    result.stats.identified(),
                    result.stats.exact_tests,
                ));
            }
        }
    }

    rows.sort_by(|x, y| x.0.partial_cmp(&y.0).expect("finite"));
    println!(
        "{:<40} {:>12} {:>12} {:>12}",
        "configuration", "cost (s)", "identified", "exact tests"
    );
    for (cost, name, identified, exact_tests) in &rows {
        println!("{name:<40} {cost:>12.2} {identified:>12} {exact_tests:>12}");
    }
    println!(
        "\nbest: {} — under the paper's cost model its §3.6 recommendation (a\n\
         tight conservative approximation plus a progressive one, exact step on\n\
         TR*-trees) should rank at or near the top. The engine's default (no\n\
         conservative, no progressive, TR*) is chosen by measured time instead.",
        rows[0].1
    );
}

//! The paper's motivating query (§1): *"find all forests which are in a
//! city"* — a spatial join of the relations Forests and Cities with the
//! intersection predicate, comparing all three §5 versions of the join
//! processor on the same data.
//!
//! ```text
//! cargo run --release --example forests_in_cities
//! ```

use msj::core::{figure18_cost, CostModelParams, ExactCostKind, JoinConfig, MultiStepJoin};
use msj::geom::Relation;

fn main() {
    // City districts tile the map; forests are an independent layer that
    // was surveyed separately (different seed, rotated placements).
    let cities: Relation = msj::datagen::small_carto(250, 48.0, 1234);
    let forests: Relation = msj::datagen::small_carto(250, 64.0, 5678);

    println!(
        "Forests ⋈_intersects Cities — {} x {} objects\n",
        forests.len(),
        cities.len()
    );

    let versions = [
        (
            "version 1: no approximations, plane sweep",
            JoinConfig::version1(),
            ExactCostKind::PlaneSweep,
        ),
        (
            "version 2: 5-C + MER, plane sweep",
            JoinConfig::version2(),
            ExactCostKind::PlaneSweep,
        ),
        (
            "version 3: 5-C + MER, TR*-tree (paper's choice)",
            JoinConfig::version3(),
            ExactCostKind::TrStar,
        ),
    ];

    let params = CostModelParams::default();
    let mut reference: Option<Vec<(u32, u32)>> = None;
    for (name, config, cost_kind) in versions {
        let result = MultiStepJoin::new(config).execute(&forests, &cities);
        // Step 1 priced by its node visits, one page access each: the
        // engine is in memory and keeps no page buffer.
        let visits = result.stats.mbr_join.io.logical;
        let cost = figure18_cost(&result.stats, visits, cost_kind, &params);
        println!("{name}");
        println!(
            "  result: {} pairs | candidates {} | filter-identified {} | exact tests {}",
            result.pairs.len(),
            result.stats.mbr_join.candidates,
            result.stats.identified(),
            result.stats.exact_tests,
        );
        println!(
            "  modeled cost: MBR-join {:.2}s + object access {:.2}s + exact {:.2}s = {:.2}s\n",
            cost.mbr_join_s,
            cost.object_access_s,
            cost.exact_test_s,
            cost.total_s()
        );

        // All versions must return the identical response set.
        let mut pairs = result.pairs.clone();
        pairs.sort_unstable();
        match &reference {
            None => reference = Some(pairs),
            Some(r) => assert_eq!(r, &pairs, "versions disagree"),
        }
    }

    let pairs = reference.unwrap();
    println!(
        "every version returns the same {} forest/city pairs — the",
        pairs.len()
    );
    println!("multi-step filters change the cost, never the answer.");
}

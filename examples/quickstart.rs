//! Quickstart: stand up a resident engine, register two synthetic map
//! layers, and serve the paper's recommended multi-step join — then
//! inspect the per-step statistics and the §5 cost accounting attached
//! to the response.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use msj::core::{JoinConfig, Request, Response, SpatialEngine};

fn main() {
    // Two seeded synthetic "map layers" with cartography-like polygons
    // (≈ 40 vertices each). Any two `msj::geom::Relation`s work the same
    // way — this is exactly the paper's Forests ⋈ Cities example shape.
    let forests = msj::datagen::small_carto(120, 40.0, 42);
    let cities = msj::datagen::small_carto(120, 40.0, 43);
    println!(
        "relations: {} forests, {} cities (avg {:.0} vertices)",
        forests.len(),
        cities.len(),
        forests.vertex_stats().0
    );

    // The default plan — raster signatures, no approximation beyond the
    // MBR, TR*-trees for the exact geometry step at the node capacity
    // this engine measured (6) — applied by a resident engine. It differs
    // from the paper's §5 "version 3" (`JoinConfig::version3()`: 5-corner
    // + MER, M = 3) where this machine's clock disagreed with the paper's
    // cost model. Registration runs Step 0 once per relation and the
    // engine owns the result.
    let engine = SpatialEngine::new(JoinConfig::default());
    let forests_handle = engine.register(forests.clone());
    let cities_handle = engine.register(cities.clone());

    let Ok(Response::Join(result)) = engine.submit(Request::Join {
        a: forests_handle.id(),
        b: cities_handle.id(),
        execution: None,
    }) else {
        panic!("join request failed");
    };

    let s = &result.stats;
    println!("\n--- three-step execution ---");
    println!(
        "step 1 (MBR-join):        {} candidate pairs, {} R*-tree node visits",
        s.mbr_join.candidates, s.mbr_join.io.logical
    );
    println!(
        "step 2 (geometric filter): {} false hits + {} hits identified ({} of candidates)",
        s.raster_drops + s.filter_false_hits,
        s.raster_hits + s.filter_hits_progressive + s.filter_hits_false_area,
        format_args!("{:.0}%", 100.0 * s.identified_fraction()),
    );
    println!(
        "step 3 (exact geometry):   {} pairs tested, {} confirmed",
        s.exact_tests, s.exact_hits
    );
    println!("\nresponse set: {} intersecting pairs", result.pairs.len());
    println!(
        "§5 accounting: modeled {:.3}s; filter yield assumed {:.0}% vs observed {:.0}%",
        result.admission.cost.total_s(),
        100.0 * result.admission.cost.filter_yield_estimated,
        100.0 * result.admission.cost.filter_yield_observed,
    );

    // Every pair in the response set truly intersects — verify a sample
    // against the quadratic reference.
    let mut counts = msj::exact::OpCounts::new();
    for &(a, b) in result.pairs.iter().take(5) {
        let ok = msj::exact::quadratic_intersects(
            &forests.object(a).region,
            &cities.object(b).region,
            &mut counts,
        );
        println!("verify forests[{a}] x cities[{b}]: {ok}");
        assert!(ok);
    }
}

//! Reproducibility: identical seeds must give bit-identical datasets,
//! joins and statistics across runs — the property that makes every
//! experiment in EXPERIMENTS.md re-checkable.

use msj::core::{JoinConfig, MultiStepJoin, SpatialEngine};

#[test]
fn datasets_are_bit_identical_per_seed() {
    let a1 = msj::datagen::europe_like(77);
    let a2 = msj::datagen::europe_like(77);
    assert_eq!(a1.len(), a2.len());
    for (x, y) in a1.iter().zip(a2.iter()) {
        assert_eq!(x.region.outer().vertices(), y.region.outer().vertices());
    }
    // A different seed produces different data.
    let b = msj::datagen::europe_like(78);
    let same = a1
        .iter()
        .zip(b.iter())
        .filter(|(x, y)| x.region.outer().vertices() == y.region.outer().vertices())
        .count();
    assert_eq!(same, 0);
}

#[test]
fn joins_are_deterministic() {
    let a = msj::datagen::small_carto(50, 24.0, 5);
    let b = msj::datagen::small_carto(50, 24.0, 6);
    let r1 = MultiStepJoin::new(JoinConfig::default()).execute(&a, &b);
    let r2 = MultiStepJoin::new(JoinConfig::default()).execute(&a, &b);
    assert_eq!(r1.pairs, r2.pairs);
    assert_eq!(r1.stats.mbr_join.candidates, r2.stats.mbr_join.candidates);
    assert_eq!(r1.stats.filter_false_hits, r2.stats.filter_false_hits);
    assert_eq!(r1.stats.exact_ops, r2.stats.exact_ops);
    // Step 1's node visits are the engine's I/O count: the same on every
    // run, cold one-shot or the second run of a resident join.
    assert!(r1.stats.mbr_join.io.logical > 0);
    assert_eq!(r1.stats.mbr_join.io.logical, r2.stats.mbr_join.io.logical);
    let engine = SpatialEngine::new(JoinConfig::default());
    let prepared = engine.prepare_join(&engine.register(a), &engine.register(b));
    prepared.run();
    assert_eq!(prepared.run().stats.mbr_join, r1.stats.mbr_join);
}

#[test]
fn series_generation_is_deterministic() {
    let s1 = msj::datagen::test_series(msj::datagen::BaseMap::Europe, msj::datagen::Strategy::B, 3);
    let s2 = msj::datagen::test_series(msj::datagen::BaseMap::Europe, msj::datagen::Strategy::B, 3);
    for (x, y) in s1.b.iter().zip(s2.b.iter()) {
        assert_eq!(x.region.outer().vertices(), y.region.outer().vertices());
    }
}

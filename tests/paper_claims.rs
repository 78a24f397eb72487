//! The paper's headline qualitative claims, asserted end-to-end on the
//! synthetic datasets at reduced scale. These tests pin the *shape* of
//! every major result: who wins, in which direction, by roughly what
//! factor.

use msj::approx::{
    Conservative, ConservativeKind, ConservativeStore, ProgressiveKind, ProgressiveStore,
};
use msj::core::{figure18_cost, CostModelParams, ExactCostKind, JoinConfig, MultiStepJoin};
use msj::exact::{
    quadratic_intersects, sweep_intersects, trees_intersect, OpCounts, TrStarStore, Weights,
};
use msj::geom::Relation;
use msj::sam::{tree_join, LruBuffer, PageLayout, RStarTree};

/// Builds a strategy-A series plus candidate/truth data at test scale.
fn series_data() -> (Relation, Relation, Vec<(u32, u32)>, Vec<bool>) {
    let base = msj::datagen::small_carto(120, 40.0, 11);
    let series = msj::datagen::strategy_a("claims", &base, msj::datagen::world(), 0.5, 0.5);
    let layout = PageLayout::baseline(4096);
    let ta = RStarTree::bulk_load(layout, series.a.iter().map(|o| (o.mbr(), o.id)));
    let tb = RStarTree::bulk_load(layout, series.b.iter().map(|o| (o.mbr(), o.id)));
    let mut buffer = LruBuffer::new(1024);
    let mut candidates = Vec::new();
    tree_join(&ta, &tb, &mut buffer, |a, b| candidates.push((a, b)));
    let sa = TrStarStore::build(&series.a, 3);
    let sb = TrStarStore::build(&series.b, 3);
    let mut c = OpCounts::new();
    let truth: Vec<bool> = candidates
        .iter()
        .map(|&(a, b)| trees_intersect(sa.get(a), sb.get(b), &mut c))
        .collect();
    (series.a, series.b, candidates, truth)
}

/// §3.1 / Table 2: roughly one third of the MBR-join candidates are false
/// hits.
#[test]
fn about_one_third_of_candidates_are_false_hits() {
    let (_, _, candidates, truth) = series_data();
    let false_hits = truth.iter().filter(|&&t| !t).count() as f64;
    let share = false_hits / candidates.len() as f64;
    assert!(
        (0.18..0.48).contains(&share),
        "false-hit share {share:.2} outside the paper's ≈1/3 band"
    );
}

/// Table 3: the 5-corner identifies about two thirds of the false hits,
/// and the identification power ranks MBC < 5-C < CH.
#[test]
fn five_corner_identifies_most_false_hits() {
    let (rel_a, rel_b, candidates, truth) = series_data();
    let ident = |kind: ConservativeKind| -> f64 {
        let sa = ConservativeStore::build(kind, &rel_a);
        let sb = ConservativeStore::build(kind, &rel_b);
        let mut fh = 0u64;
        let mut id = 0u64;
        for (&(a, b), &t) in candidates.iter().zip(&truth) {
            if t {
                continue;
            }
            fh += 1;
            if !sa.view(a).intersects(&sb.view(b)) {
                id += 1;
            }
        }
        id as f64 / fh.max(1) as f64
    };
    let mbc = ident(ConservativeKind::Mbc);
    let c5 = ident(ConservativeKind::FiveCorner);
    let ch = ident(ConservativeKind::ConvexHull);
    assert!(c5 > 0.5, "5-C should identify most false hits, got {c5:.2}");
    assert!(
        mbc < c5 && c5 <= ch,
        "ordering MBC({mbc:.2}) < 5-C({c5:.2}) <= CH({ch:.2})"
    );
}

/// Table 5: progressive approximations identify a substantial share of
/// the hits (paper ≈ 32–35 %), with MER at least as good as MEC.
#[test]
fn progressive_approximations_identify_hits() {
    let (rel_a, rel_b, candidates, truth) = series_data();
    let ident = |kind: ProgressiveKind| -> f64 {
        let sa = ProgressiveStore::build(kind, &rel_a);
        let sb = ProgressiveStore::build(kind, &rel_b);
        let mut hits = 0u64;
        let mut id = 0u64;
        for (&(a, b), &t) in candidates.iter().zip(&truth) {
            if !t {
                continue;
            }
            hits += 1;
            if sa.get(a).intersects(&sb.get(b)) {
                id += 1;
            }
        }
        id as f64 / hits.max(1) as f64
    };
    let mec = ident(ProgressiveKind::Mec);
    let mer = ident(ProgressiveKind::Mer);
    assert!(mec > 0.10, "MEC share {mec:.2}");
    assert!(mer > 0.15, "MER share {mer:.2}");
    assert!(
        mer >= mec * 0.8,
        "MER({mer:.2}) should be ≈>= MEC({mec:.2})"
    );
}

/// Table 7: on the candidates that reach the exact step, the TR*-tree
/// beats the plane sweep, which beats the quadratic algorithm, in
/// weighted operation cost.
#[test]
fn exact_algorithm_ranking_matches_table7() {
    let (rel_a, rel_b, candidates, _) = series_data();
    let weights = Weights::default();
    let sa = TrStarStore::build(&rel_a, 3);
    let sb = TrStarStore::build(&rel_b, 3);
    let mut cq = OpCounts::new();
    let mut cs = OpCounts::new();
    let mut ct = OpCounts::new();
    for &(a, b) in candidates.iter().take(300) {
        quadratic_intersects(&rel_a.object(a).region, &rel_b.object(b).region, &mut cq);
        sweep_intersects(
            &rel_a.object(a).region,
            &rel_b.object(b).region,
            true,
            &mut cs,
        );
        trees_intersect(sa.get(a), sb.get(b), &mut ct);
    }
    let (q, s, t) = (
        cq.cost_ms(&weights),
        cs.cost_ms(&weights),
        ct.cost_ms(&weights),
    );
    assert!(t < s, "TR* ({t:.0} ms) must beat the sweep ({s:.0} ms)");
    assert!(s < q, "sweep ({s:.0} ms) must beat quadratic ({q:.0} ms)");
    assert!(q / t > 5.0, "TR* speedup over quadratic only {:.1}x", q / t);
}

/// Figure 17: M = 3 is the best TR*-tree node capacity (fewest weighted
/// operations among 3, 4, 5).
#[test]
fn trstar_m3_is_best_capacity() {
    let (rel_a, rel_b, candidates, _) = series_data();
    let weights = Weights::default();
    let mut costs = Vec::new();
    for m in [3usize, 4, 5] {
        let sa = TrStarStore::build(&rel_a, m);
        let sb = TrStarStore::build(&rel_b, m);
        let mut c = OpCounts::new();
        for &(a, b) in candidates.iter().take(300) {
            trees_intersect(sa.get(a), sb.get(b), &mut c);
        }
        costs.push(c.cost_ms(&weights));
    }
    assert!(
        costs[0] <= costs[1] * 1.05 && costs[0] <= costs[2] * 1.05,
        "M=3 ({:.0}) should be within 5% of best among M=4 ({:.0}), M=5 ({:.0})",
        costs[0],
        costs[1],
        costs[2]
    );
}

/// Figure 18: version 2 beats version 1, version 3 beats version 2, and
/// version 3 improves on version 1 by a factor in the paper's "more than
/// 3" regime.
#[test]
fn version_costs_rank_v3_v2_v1() {
    let a = msj::datagen::small_carto(100, 30.0, 21);
    let b = msj::datagen::small_carto(100, 30.0, 22);
    let params = CostModelParams::default();
    let cost = |config: JoinConfig, kind: ExactCostKind| -> f64 {
        let r = MultiStepJoin::new(config).execute(&a, &b);
        // The MBR-join's page reads under the §5 disk model: the
        // engine's trees through a cold LRU buffer of the configured size.
        let layout = PageLayout::with_extra_bytes(config.page_size, config.extra_leaf_bytes());
        let tree =
            |rel: &Relation| RStarTree::bulk_load(layout, rel.iter().map(|o| (o.mbr(), o.id)));
        let mut buffer = LruBuffer::with_bytes(config.buffer_bytes, config.page_size);
        let pages = tree_join(&tree(&a), &tree(&b), &mut buffer, |_, _| {})
            .io
            .physical;
        figure18_cost(&r.stats, pages, kind, &params).total_s()
    };
    let v1 = cost(JoinConfig::version1(), ExactCostKind::PlaneSweep);
    let v2 = cost(JoinConfig::version2(), ExactCostKind::PlaneSweep);
    let v3 = cost(JoinConfig::version3(), ExactCostKind::TrStar);
    assert!(v2 < v1, "v2 ({v2:.1}s) must beat v1 ({v1:.1}s)");
    assert!(v3 < v2, "v3 ({v3:.1}s) must beat v2 ({v2:.1}s)");
    assert!(v1 / v3 > 2.5, "total improvement only {:.1}x", v1 / v3);
}

/// §3.4: storing approximations in addition to the MBR reduces fanout and
/// therefore costs some MBR-join I/O — but the filter gain dominates
/// (Figure 11's 'total' is positive).
#[test]
fn approximation_gain_exceeds_storage_loss() {
    let rel_a = msj::datagen::large_relation(1500, 0, 31);
    let rel_b = msj::datagen::large_relation(1500, 1, 31);
    let page = 2048usize;
    let base_a = RStarTree::bulk_load(
        PageLayout::baseline(page),
        rel_a.iter().map(|o| (o.mbr(), o.id)),
    );
    let base_b = RStarTree::bulk_load(
        PageLayout::baseline(page),
        rel_b.iter().map(|o| (o.mbr(), o.id)),
    );
    let mut buffer = LruBuffer::with_bytes(128 * 1024, page);
    let base = tree_join(&base_a, &base_b, &mut buffer, |_, _| {});

    let cons_a = ConservativeStore::build(ConservativeKind::FiveCorner, &rel_a);
    let cons_b = ConservativeStore::build(ConservativeKind::FiveCorner, &rel_b);
    let mer_a = ProgressiveStore::build(ProgressiveKind::Mer, &rel_a);
    let mer_b = ProgressiveStore::build(ProgressiveKind::Mer, &rel_b);
    let layout = PageLayout::with_extra_bytes(page, 56);
    let ta = RStarTree::bulk_load(layout, rel_a.iter().map(|o| (o.mbr(), o.id)));
    let tb = RStarTree::bulk_load(layout, rel_b.iter().map(|o| (o.mbr(), o.id)));
    let mut buffer = LruBuffer::with_bytes(128 * 1024, page);
    let mut identified = 0i64;
    let stats = tree_join(&ta, &tb, &mut buffer, |x, y| {
        if !cons_a.view(x).intersects(&cons_b.view(y)) || mer_a.get(x).intersects(&mer_b.get(y)) {
            identified += 1;
        }
    });
    let loss = stats.io.physical as i64 - base.io.physical as i64;
    assert!(
        identified > 2 * loss.max(0),
        "gain {identified} should dominate loss {loss}"
    );
}

/// A conservative approximation never misclassifies: every "false hit" it
/// identifies is truly disjoint (checked against ground truth).
#[test]
fn filter_soundness_on_series() {
    let (rel_a, rel_b, candidates, truth) = series_data();
    for kind in [
        ConservativeKind::FiveCorner,
        ConservativeKind::Mbe,
        ConservativeKind::Mbc,
    ] {
        let sa = ConservativeStore::build(kind, &rel_a);
        let sb = ConservativeStore::build(kind, &rel_b);
        for (&(a, b), &t) in candidates.iter().zip(&truth) {
            if !sa.view(a).intersects(&sb.view(b)) {
                assert!(!t, "{} separated a true hit ({a},{b})", kind.name());
            }
        }
    }
    // And conservativeness itself: approximations contain their objects.
    for o in rel_a.iter().take(20) {
        for kind in ConservativeKind::ALL {
            let ap = Conservative::compute(kind, o);
            assert!(msj::approx::is_conservative_for(&ap, &o.region));
        }
    }
}

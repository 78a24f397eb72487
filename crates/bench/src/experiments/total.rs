//! Total-performance reproduction: Figure 18 (versions 1/2/3) plus the
//! filter-order and buffer-size ablations.

use super::ExpConfig;
use crate::report::{f, pct, section, Table};
use msj_approx::{ConservativeKind, ConservativeStore, ProgressiveKind, ProgressiveStore};
use msj_core::{figure18_cost, CostModelParams, ExactCostKind, JoinConfig, MultiStepJoin};
use msj_geom::Relation;
use msj_sam::{tree_join, LruBuffer, PageLayout, RStarTree};

/// Figure 18: total join cost of the three versions, stacked into
/// MBR-join / object access / exact test, using the §5 cost model on the
/// measured statistics.
pub fn fig18(cfg: &ExpConfig) -> String {
    let mut out = section(
        "fig18",
        "total join performance, versions 1/2/3 (paper Figure 18)",
    );
    let count = cfg.large_count();
    let rel_a = msj_datagen::large_relation(count, 0, cfg.seed);
    let rel_b = msj_datagen::large_relation(count, 1, cfg.seed);
    out.push_str(&format!(
        "relations: 2 x {count} objects (paper: 2 x 130,000; ≈86,000 MBR pairs)\n\n",
    ));
    let params = CostModelParams::default();

    let versions: [(&str, JoinConfig, ExactCostKind); 3] = [
        (
            "version 1 (no approx, sweep)",
            JoinConfig::version1(),
            ExactCostKind::PlaneSweep,
        ),
        (
            "version 2 (5-C+MER, sweep)",
            JoinConfig::version2(),
            ExactCostKind::PlaneSweep,
        ),
        (
            "version 3 (5-C+MER, TR*)",
            JoinConfig::version3(),
            ExactCostKind::TrStar,
        ),
    ];

    let mut t = Table::new([
        "version",
        "candidates",
        "identified",
        "MBR-join (s)",
        "object access (s)",
        "exact test (s)",
        "total (s)",
    ]);
    let mut totals = Vec::new();
    for (name, config, kind) in versions {
        let result = MultiStepJoin::new(config).execute(&rel_a, &rel_b);
        // The engine is in memory: the MBR-join's page reads are its trees
        // joined through a cold LRU buffer of the configured size.
        let layout = PageLayout::with_extra_bytes(config.page_size, config.extra_leaf_bytes());
        let tree = |r: &Relation| RStarTree::bulk_load(layout, r.iter().map(|o| (o.mbr(), o.id)));
        let mut buffer = LruBuffer::with_bytes(config.buffer_bytes, config.page_size);
        let join = tree_join(&tree(&rel_a), &tree(&rel_b), &mut buffer, |_, _| {});
        let cost = figure18_cost(&result.stats, join.io.physical, kind, &params);
        totals.push(cost.total_s());
        t.row([
            name.to_string(),
            result.stats.mbr_join.candidates.to_string(),
            result.stats.identified().to_string(),
            f(cost.mbr_join_s, 1),
            f(cost.object_access_s, 1),
            f(cost.exact_test_s, 1),
            f(cost.total_s(), 1),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nspeedups: v1/v2 = {:.2}x (paper ≈ 1.7x), v2/v3 = {:.2}x (paper ≈ 2x),\n\
         v1/v3 = {:.2}x (paper: more than 3x)\n",
        totals[0] / totals[1].max(1e-9),
        totals[1] / totals[2].max(1e-9),
        totals[0] / totals[2].max(1e-9),
    ));
    out.push_str(
        "absolute seconds scale with the object count; the paper's shape —\n\
         v1 dominated by exact tests + object access, v3 dominated by object\n\
         access — is what must match.\n",
    );
    out
}

/// Ablation: order of the filter tests. Conservative-first (the paper's
/// pipeline) vs progressive-first, comparing how many of each (costly)
/// approximation test run.
pub fn ablation_order(cfg: &ExpConfig) -> String {
    let mut out = section(
        "ablation-order",
        "filter ordering: conservative-first vs progressive-first",
    );
    let data = crate::data::SeriesData::build(cfg.series("Europe A"));
    let cons_a = ConservativeStore::build(ConservativeKind::FiveCorner, &data.series.a);
    let cons_b = ConservativeStore::build(ConservativeKind::FiveCorner, &data.series.b);
    let prog_a = ProgressiveStore::build(ProgressiveKind::Mer, &data.series.a);
    let prog_b = ProgressiveStore::build(ProgressiveKind::Mer, &data.series.b);

    // Conservative first (paper order).
    let mut cons_tests_cf = 0u64;
    let mut prog_tests_cf = 0u64;
    let mut identified_cf = 0u64;
    for (a, b, _) in data.iter() {
        cons_tests_cf += 1;
        if !cons_a.view(a).intersects(&cons_b.view(b)) {
            identified_cf += 1;
            continue;
        }
        prog_tests_cf += 1;
        if prog_a.get(a).intersects(&prog_b.get(b)) {
            identified_cf += 1;
        }
    }
    // Progressive first.
    let mut cons_tests_pf = 0u64;
    let mut prog_tests_pf = 0u64;
    let mut identified_pf = 0u64;
    for (a, b, _) in data.iter() {
        prog_tests_pf += 1;
        if prog_a.get(a).intersects(&prog_b.get(b)) {
            identified_pf += 1;
            continue;
        }
        cons_tests_pf += 1;
        if !cons_a.view(a).intersects(&cons_b.view(b)) {
            identified_pf += 1;
        }
    }
    let mut t = Table::new(["order", "5-C tests", "MER tests", "identified"]);
    t.row([
        "conservative first".to_string(),
        cons_tests_cf.to_string(),
        prog_tests_cf.to_string(),
        identified_cf.to_string(),
    ]);
    t.row([
        "progressive first".to_string(),
        cons_tests_pf.to_string(),
        prog_tests_pf.to_string(),
        identified_pf.to_string(),
    ]);
    out.push_str(&t.render());
    assert_eq!(
        identified_cf, identified_pf,
        "order cannot change the identified set"
    );
    out.push_str(
        "\nboth orders identify the same pairs; conservative-first runs fewer\n\
         progressive tests (hits dominate candidates, and the conservative\n\
         test is needed for every surviving pair anyway).\n",
    );
    out
}

/// Ablation: LRU buffer size sweep for the MBR-join.
pub fn ablation_buffer(cfg: &ExpConfig) -> String {
    let mut out = section("ablation-buffer", "MBR-join I/O vs LRU buffer size");
    let count = cfg.large_count().min(20_000);
    let rel_a = msj_datagen::large_relation(count, 0, cfg.seed);
    let rel_b = msj_datagen::large_relation(count, 1, cfg.seed);
    let page_size = 4096usize;
    let layout = PageLayout::baseline(page_size);
    let ta = RStarTree::bulk_load(layout, rel_a.iter().map(|o| (o.mbr(), o.id)));
    let tb = RStarTree::bulk_load(layout, rel_b.iter().map(|o| (o.mbr(), o.id)));
    let total_pages = (ta.num_pages() + tb.num_pages()) as f64;

    let mut t = Table::new([
        "buffer pages",
        "physical reads",
        "logical reads",
        "hit ratio",
    ]);
    for pages in [4usize, 8, 16, 32, 64, 128] {
        let mut buffer = LruBuffer::new(pages);
        let stats = tree_join(&ta, &tb, &mut buffer, |_, _| {});
        t.row([
            pages.to_string(),
            stats.io.physical.to_string(),
            stats.io.logical.to_string(),
            pct(stats.io.hit_ratio()),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\ntrees hold {total_pages:.0} pages in total; the depth-first join\n\
         locality makes even small buffers effective ([BKS 93a]'s observation).\n",
    ));
    out
}

/// Ablation: MBR-join strategies — synchronized tree join ([BKS 93a]) vs
/// index nested-loop probing vs plain nested loops.
pub fn ablation_joinstrategy(cfg: &ExpConfig) -> String {
    use msj_sam::index_nested_loop_join;
    let mut out = section(
        "ablation-joinstrategy",
        "MBR-join strategies: tree join vs index nested loop vs nested loops",
    );
    let count = cfg.large_count().min(20_000);
    let rel_a = msj_datagen::large_relation(count, 0, cfg.seed);
    let rel_b = msj_datagen::large_relation(count, 1, cfg.seed);
    let page_size = 4096usize;
    let layout = PageLayout::baseline(page_size);
    let ta = RStarTree::bulk_load(layout, rel_a.iter().map(|o| (o.mbr(), o.id)));
    let tb = RStarTree::bulk_load(layout, rel_b.iter().map(|o| (o.mbr(), o.id)));
    let outer: Vec<(msj_geom::Rect, u32)> = rel_a.iter().map(|o| (o.mbr(), o.id)).collect();
    let inner: Vec<(msj_geom::Rect, u32)> = rel_b.iter().map(|o| (o.mbr(), o.id)).collect();

    let mut t = Table::new(["strategy", "candidates", "physical reads", "MBR tests"]);
    let mut buffer = LruBuffer::with_bytes(128 * 1024, page_size);
    let tree = msj_sam::tree_join(&ta, &tb, &mut buffer, |_, _| {});
    t.row([
        "synchronized tree join".to_string(),
        tree.candidates.to_string(),
        tree.io.physical.to_string(),
        tree.mbr_tests.to_string(),
    ]);
    let mut buffer = LruBuffer::with_bytes(128 * 1024, page_size);
    let inl = index_nested_loop_join(&outer, &tb, &mut buffer, |_, _| {});
    t.row([
        "index nested loop".to_string(),
        inl.candidates.to_string(),
        inl.io.physical.to_string(),
        "-".to_string(),
    ]);
    let mut nl_pairs = 0u64;
    let nl_tests = msj_sam::nested_loops_join(&outer, &inner, |_, _| nl_pairs += 1);
    t.row([
        "nested loops (no index)".to_string(),
        nl_pairs.to_string(),
        "0 (all in memory)".to_string(),
        nl_tests.to_string(),
    ]);
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nall strategies emit the same candidates. The inner tree holds {} pages\n\
         against a 32-page buffer: once the tree exceeds the buffer, repeated\n\
         probing thrashes and [BKS 93a]'s synchronized traversal wins on I/O;\n\
         it always wins on rectangle tests vs the quadratic nested loops.\n",
        tb.num_pages()
    ));
    out
}

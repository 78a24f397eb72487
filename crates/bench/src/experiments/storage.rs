//! Storage-organization reproductions: Figure 10 (approximation as key vs
//! in addition to the MBR) and Figure 11 (loss/gain/total of storing
//! approximations).

use super::ExpConfig;
use crate::report::{pct, section, Table};
use msj_approx::{
    conservative_bytes, progressive_bytes, ConservativeKind, ConservativeStore, ProgressiveKind,
    ProgressiveStore,
};
use msj_geom::{Point, Rect, Relation};
use msj_sam::{tree_join, LruBuffer, PageLayout, RStarTree};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const BUFFER_BYTES: usize = 128 * 1024;

/// How the approximation is organized in the R*-tree (§3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Approach {
    /// Approximation *instead of* the MBR: the key is the approximation's
    /// AABB (larger area extension), the entry stores only the
    /// approximation.
    InsteadOfMbr,
    /// Approximation *in addition to* the MBR: the key is the true MBR,
    /// the entry stores MBR + approximation.
    InAdditionToMbr,
}

/// Builds the R*-tree of a relation under the given approach.
fn build_tree(
    rel: &Relation,
    store: &ConservativeStore,
    kind: ConservativeKind,
    approach: Approach,
    page_size: usize,
) -> RStarTree {
    let approx_bytes = conservative_bytes(kind, None).max(12);
    let (layout, keys): (PageLayout, Vec<(Rect, u32)>) = match approach {
        Approach::InsteadOfMbr => (
            PageLayout {
                page_size,
                leaf_entry_bytes: approx_bytes + 32,
                dir_entry_bytes: 20,
            },
            rel.iter()
                .map(|o| (store.view(o.id).aabb(), o.id))
                .collect(),
        ),
        Approach::InAdditionToMbr => (
            PageLayout {
                page_size,
                leaf_entry_bytes: 16 + approx_bytes + 32,
                dir_entry_bytes: 20,
            },
            rel.iter().map(|o| (o.mbr(), o.id)).collect(),
        ),
    };
    RStarTree::bulk_load(layout, keys)
}

/// Physical page accesses of the Figure 10 workloads on one tree pair.
struct WorkloadAccesses {
    point: u64,
    window1: u64,
    window5: u64,
    join: u64,
}

fn run_workloads(
    tree_a: &RStarTree,
    tree_b: &RStarTree,
    world: Rect,
    queries: usize,
    page_size: usize,
    seed: u64,
) -> WorkloadAccesses {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut buffer = LruBuffer::with_bytes(BUFFER_BYTES, page_size);

    // Only the page accesses are read; the hits land in one reused sink.
    let mut hits = Vec::new();
    let mut point = 0u64;
    for _ in 0..queries {
        let p = Point::new(
            rng.gen_range(world.xmin()..world.xmax()),
            rng.gen_range(world.ymin()..world.ymax()),
        );
        hits.clear();
        tree_a.point_query(p, &mut buffer, &mut hits);
    }
    point += buffer.stats().physical;

    let mut window = |frac: f64, buffer: &mut LruBuffer| -> u64 {
        buffer.reset();
        let side = frac * world.width();
        for _ in 0..queries {
            let x = rng.gen_range(world.xmin()..world.xmax() - side);
            let y = rng.gen_range(world.ymin()..world.ymax() - side);
            hits.clear();
            tree_a.window_query(
                Rect::from_bounds(x, y, x + side, y + side),
                buffer,
                &mut hits,
            );
        }
        buffer.stats().physical
    };
    let window1 = window(0.01, &mut buffer);
    let window5 = window(0.05, &mut buffer);

    buffer.reset();
    let join_stats = tree_join(tree_a, tree_b, &mut buffer, |_, _| {});
    WorkloadAccesses {
        point,
        window1,
        window5,
        join: join_stats.io.physical,
    }
}

/// Figure 10: page accesses of approach 2 relative to approach 1.
pub fn fig10(cfg: &ExpConfig) -> String {
    let mut out = section(
        "fig10",
        "approximation as key (approach 1) vs in addition to the MBR (approach 2), paper Figure 10",
    );
    let count = cfg.large_count();
    let rel_a = msj_datagen::large_relation(count, 0, cfg.seed);
    let rel_b = msj_datagen::large_relation(count, 1, cfg.seed);
    let world = msj_datagen::world();
    out.push_str(&format!("relations: 2 x {count} objects\n"));

    for kind in [ConservativeKind::Rmbr, ConservativeKind::FiveCorner] {
        let store_a = ConservativeStore::build(kind, &rel_a);
        let store_b = ConservativeStore::build(kind, &rel_b);
        out.push_str(&format!("\napproximation: {}\n", kind.name()));
        let mut t = Table::new([
            "page size",
            "workload",
            "approach 1",
            "approach 2",
            "a2 / a1",
        ]);
        for page_size in [2048usize, 4096] {
            let t1a = build_tree(&rel_a, &store_a, kind, Approach::InsteadOfMbr, page_size);
            let t1b = build_tree(&rel_b, &store_b, kind, Approach::InsteadOfMbr, page_size);
            let t2a = build_tree(&rel_a, &store_a, kind, Approach::InAdditionToMbr, page_size);
            let t2b = build_tree(&rel_b, &store_b, kind, Approach::InAdditionToMbr, page_size);
            let w1 = run_workloads(&t1a, &t1b, world, cfg.query_count(), page_size, cfg.seed);
            let w2 = run_workloads(&t2a, &t2b, world, cfg.query_count(), page_size, cfg.seed);
            for (name, a1, a2) in [
                ("point queries", w1.point, w2.point),
                ("window 1%", w1.window1, w2.window1),
                ("window 5%", w1.window5, w2.window5),
                ("join", w1.join, w2.join),
            ] {
                t.row([
                    format!("{} KB", page_size / 1024),
                    name.to_string(),
                    a1.to_string(),
                    a2.to_string(),
                    pct(a2 as f64 / a1.max(1) as f64),
                ]);
            }
        }
        out.push_str(&t.render());
    }
    out.push_str(
        "\npaper: only slight differences, small advantages for approach 1 in\n\
         I/O — but approach 1 tests the (expensive) approximation ≈ 30x more\n\
         often, so approach 2 (approximation in addition to the MBR) wins.\n",
    );
    out
}

/// Figure 11: loss (extra MBR-join I/O) / gain (filtered pairs) / total
/// when storing a conservative approximation + the MER.
pub fn fig11(cfg: &ExpConfig) -> String {
    let mut out = section(
        "fig11",
        "performance change through approximations (paper Figure 11)",
    );
    let count = cfg.large_count();
    let rel_a = msj_datagen::large_relation(count, 0, cfg.seed);
    let rel_b = msj_datagen::large_relation(count, 1, cfg.seed);
    out.push_str(&format!("relations: 2 x {count} objects\n"));

    // Progressive store (MER) shared by both conservative variants.
    let mer_a = ProgressiveStore::build(ProgressiveKind::Mer, &rel_a);
    let mer_b = ProgressiveStore::build(ProgressiveKind::Mer, &rel_b);

    let mut t = Table::new([
        "page size",
        "conservative",
        "baseline join pages",
        "approx join pages",
        "loss",
        "gain",
        "total",
    ]);
    for page_size in [2048usize, 4096] {
        // Baseline: MBR-only layout.
        let base_layout = PageLayout::baseline(page_size);
        let base_a = RStarTree::bulk_load(base_layout, rel_a.iter().map(|o| (o.mbr(), o.id)));
        let base_b = RStarTree::bulk_load(base_layout, rel_b.iter().map(|o| (o.mbr(), o.id)));
        let mut buffer = LruBuffer::with_bytes(BUFFER_BYTES, page_size);
        let base_stats = tree_join(&base_a, &base_b, &mut buffer, |_, _| {});

        for kind in [ConservativeKind::Rmbr, ConservativeKind::FiveCorner] {
            let cons_a = ConservativeStore::build(kind, &rel_a);
            let cons_b = ConservativeStore::build(kind, &rel_b);
            let extra = conservative_bytes(kind, None) + progressive_bytes(ProgressiveKind::Mer);
            let layout = PageLayout::with_extra_bytes(page_size, extra);
            let ta = RStarTree::bulk_load(layout, rel_a.iter().map(|o| (o.mbr(), o.id)));
            let tb = RStarTree::bulk_load(layout, rel_b.iter().map(|o| (o.mbr(), o.id)));
            let mut buffer = LruBuffer::with_bytes(BUFFER_BYTES, page_size);
            let mut identified = 0u64;
            let approx_stats = tree_join(&ta, &tb, &mut buffer, |a, b| {
                let con_disjoint = !cons_a.view(a).intersects(&cons_b.view(b));
                if con_disjoint || mer_a.get(a).intersects(&mer_b.get(b)) {
                    identified += 1;
                }
            });
            let loss = approx_stats.io.physical as i64 - base_stats.io.physical as i64;
            let gain = identified as i64;
            t.row([
                format!("{} KB", page_size / 1024),
                kind.name().to_string(),
                base_stats.io.physical.to_string(),
                approx_stats.io.physical.to_string(),
                loss.to_string(),
                gain.to_string(),
                (gain - loss).to_string(),
            ]);
        }
    }
    out.push_str(&t.render());
    out.push_str(
        "\npaper: the gain (one saved page access per identified pair) clearly\n\
         dominates the loss (extra MBR-join accesses from the fatter entries).\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approach1_uses_bigger_keys_than_approach2() {
        let rel = msj_datagen::large_relation(200, 0, 3);
        let kind = ConservativeKind::Rmbr;
        let store = ConservativeStore::build(kind, &rel);
        let t1 = build_tree(&rel, &store, kind, Approach::InsteadOfMbr, 2048);
        let t2 = build_tree(&rel, &store, kind, Approach::InAdditionToMbr, 2048);
        // Approach 1 keys are AABBs of rotated rectangles — never smaller
        // than the true MBRs, so the root covers at least as much area.
        assert!(t1.root_rect().area() >= t2.root_rect().area() * 0.999);
        // Approach 2 entries are fatter: equal or fewer entries per page.
        assert!(t2.layout().leaf_entry_bytes > t1.layout().leaf_entry_bytes);
    }

    #[test]
    fn workloads_produce_io() {
        // Enough objects that a packed tree (88 pages) outgrows the 64-page
        // buffer: at 300 its 15 pages were all touched by 50 windows of
        // either size, and which size read one page more was chance.
        let rel_a = msj_datagen::large_relation(2000, 0, 4);
        let rel_b = msj_datagen::large_relation(2000, 1, 4);
        let kind = ConservativeKind::FiveCorner;
        let sa = ConservativeStore::build(kind, &rel_a);
        let sb = ConservativeStore::build(kind, &rel_b);
        let ta = build_tree(&rel_a, &sa, kind, Approach::InAdditionToMbr, 2048);
        let tb = build_tree(&rel_b, &sb, kind, Approach::InAdditionToMbr, 2048);
        let w = run_workloads(&ta, &tb, msj_datagen::world(), 50, 2048, 9);
        assert!(w.point > 0);
        assert!(w.window5 >= w.window1);
        assert!(w.join > 0);
    }
}

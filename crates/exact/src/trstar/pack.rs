//! The packer behind the TR*-tree arena.
//!
//! [`pack`] writes the trees over the arena's trapezoid column as it
//! lies: every object's trapezoids in decomposition order, which is band
//! order, so vertically adjacent trapezoids share leaves. An object of at
//! most `M` trapezoids is one leaf; otherwise the leaves are `⌈n / L⌉`
//! runs of consecutive trapezoids whose sizes differ by at most one, `L`
//! being [`leaf_capacity`], and each directory level packs the level
//! below the same way at `M` until one root is left. A tree's nodes are
//! written bottom-up from the end of its node run, so the root lands
//! first and every level follows the one above it: the breadth-first
//! order the arena's layout asks for. Nothing is copied, and no scratch
//! is kept per object or per node.

use super::{as_offset, Built, NodeHeader};
use crate::trapezoid::Trapezoid;
use msj_geom::Rect;

/// Trapezoids per leaf at node capacity `m` in a tree of more than one
/// leaf: one short of a directory node's `m`, but at least two. A leaf
/// holds the trapezoids its MBR pretests one by one, so a leaf slot is
/// dearer than a directory slot. On the benchmark's refine join (M = 6),
/// full leaves made 21 % more weighted operations than the R*-inserted
/// trees they replaced and leaves of `m − 1` 7 % (9 % with [`leaves`]'
/// single leaf); the latter's join was the faster in 5 of 6 interleaved
/// runs, for 2 % more stored bytes.
fn leaf_capacity(m: usize) -> usize {
    (m - 1).max(2)
}

/// Leaves over `n` trapezoids at node capacity `m`. One root leaf holds
/// up to `m`: with no directory level above it there is nothing to trade
/// its slots against, and splitting `m` trapezoids into two leaves adds
/// two nodes and a level. A fifth of the filter workload's 60k parcels
/// have exactly 6 trapezoids; at M = 6 that split cost 1 MB of nodes.
fn leaves(n: usize, m: usize) -> usize {
    if n <= m {
        1
    } else {
        n.div_ceil(leaf_capacity(m))
    }
}

/// Nodes of the packed tree over `n` trapezoids at node capacity `m`:
/// one root even over none.
fn packed_nodes(n: usize, m: usize) -> usize {
    let mut level = leaves(n, m);
    let mut total = level;
    while level > 1 {
        level = level.div_ceil(m);
        total += level;
    }
    total
}

/// The arena over `traps`, object *i* owning `traps[o[i]..o[i + 1]]` of
/// the offset table `trap_offsets`: one packed tree per object at node
/// capacity `m`, the node column allocated once at its exact size.
pub(super) fn pack(traps: Vec<Trapezoid>, trap_offsets: Vec<u32>, m: usize) -> Built {
    let objects = || {
        trap_offsets
            .windows(2)
            .map(|w| w[0] as usize..w[1] as usize)
    };
    let mut nodes = Vec::with_capacity(objects().map(|t| packed_nodes(t.len(), m)).sum());
    let mut node_offsets = Vec::with_capacity(trap_offsets.len());
    node_offsets.push(0);
    for object in objects() {
        pack_tree(&mut nodes, &traps[object], m);
        node_offsets.push(as_offset(nodes.len()));
    }
    Built {
        node_offsets,
        trap_offsets,
        nodes,
        traps,
    }
}

/// Appends the packed tree over one object's `traps` to `nodes`.
fn pack_tree(nodes: &mut Vec<NodeHeader>, traps: &[Trapezoid], m: usize) {
    let base = nodes.len();
    let total = packed_nodes(traps.len(), m);
    let empty = Rect::from_bounds(0.0, 0.0, 0.0, 0.0);
    let blank = NodeHeader {
        rect: empty,
        first: 0,
        level: 0,
        count: 0,
    };
    nodes.resize(base + total, blank);
    let nodes = &mut nodes[base..];
    // `below` entries of the level below start at object-local `end`
    // (the leaves' entries are the trapezoids, from 0).
    let (mut below, mut end, mut level) = (traps.len(), total, 0u16);
    loop {
        let count = if level == 0 {
            leaves(below, m)
        } else {
            below.div_ceil(m)
        };
        let start = end - count;
        for i in 0..count {
            let run = i * below / count..(i + 1) * below / count;
            let (first, rect) = if level == 0 {
                let rects = traps[run.clone()].iter().map(Trapezoid::mbr);
                (run.start, rects.reduce(|a, b| a.union(&b)))
            } else {
                let rects = nodes[end + run.start..end + run.end].iter().map(|n| n.rect);
                (end + run.start, rects.reduce(|a, b| a.union(&b)))
            };
            nodes[start + i] = NodeHeader {
                rect: rect.unwrap_or(empty),
                first: u32::try_from(first).expect("object-local index fits u32"),
                level,
                count: run.len() as u16, // ≤ m ≤ u16::MAX
            };
        }
        if count == 1 {
            break;
        }
        (below, end, level) = (count, start, level + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::OpCounts;
    use crate::trapezoid::decompose;
    use crate::trstar::{trees_intersect, TrStarStore};
    use msj_geom::{ObjectId, Point, Polygon, PolygonWithHoles, SharedBytes};

    const CAPACITIES: [usize; 5] = [2, 3, 6, 8, 16];

    fn bits(traps: &[Trapezoid]) -> Vec<[u64; 6]> {
        let t = |t: &Trapezoid| [t.y_lo, t.y_hi, t.x_lo.0, t.x_lo.1, t.x_hi.0, t.x_hi.1];
        traps.iter().map(|x| t(x).map(f64::to_bits)).collect()
    }

    /// Level `l`'s node count over `n` trapezoids at capacity `m`, by the
    /// closed form `⌈n / (L · mˡ)⌉` with `L` the leaf capacity (nested
    /// ceilings of a division collapse), for every level up to the first
    /// that is a single node; `[1]` when one leaf of `m` holds them all.
    fn closed_form_levels(n: usize, m: usize) -> Vec<usize> {
        let leaf = leaf_capacity(m);
        let mut levels = vec![if n <= m { 1 } else { n.div_ceil(leaf) }];
        while *levels.last().unwrap() > 1 {
            levels.push(n.div_ceil(leaf * m.pow(levels.len() as u32)));
        }
        levels
    }

    #[test]
    fn packed_trees_are_balanced_runs_over_the_decomposition() {
        let relations = [
            msj_datagen::skewed_carto(400, 24.0, 7),
            msj_datagen::carto_with_holes(200, 30.0, 11),
        ];
        assert!(relations[1].iter().any(|o| !o.region.holes().is_empty()));
        for relation in &relations {
            for m in CAPACITIES {
                let store = TrStarStore::build(relation, m);
                let c = store.columns();
                for (id, o) in relation.iter().enumerate() {
                    let tree = c.get(id as ObjectId);
                    let want = decompose(&o.region);
                    assert_eq!(bits(tree.traps), bits(&want), "object {id}, M = {m}");
                    let levels = closed_form_levels(want.len(), m);
                    assert_eq!(tree.nodes.len(), levels.iter().sum::<usize>());
                    assert_eq!(tree.nodes.len(), packed_nodes(want.len(), m));
                    assert_eq!(tree.height() as usize, levels.len());
                    for (level, &count) in levels.iter().enumerate() {
                        let at = tree.nodes.iter().filter(|n| usize::from(n.level) == level);
                        let sizes: Vec<usize> = at.map(|n| n.children().len()).collect();
                        assert_eq!(sizes.len(), count, "level {level}, M = {m}");
                        let (lo, hi) = (sizes.iter().min(), sizes.iter().max());
                        assert!(hi.unwrap() - lo.unwrap() <= 1, "unbalanced: {sizes:?}");
                        let leaf = if levels.len() == 1 {
                            m
                        } else {
                            leaf_capacity(m)
                        };
                        let capacity = if level == 0 { leaf } else { m };
                        assert!(*hi.unwrap() <= capacity);
                    }
                    // Every rectangle is exactly the union of its entries'.
                    for n in tree.nodes {
                        let rect = if n.level == 0 {
                            let mut mbrs = tree.traps[n.children()].iter().map(Trapezoid::mbr);
                            mbrs.next().map(|r| mbrs.fold(r, |a, b| a.union(&b)))
                        } else {
                            let mut rects = tree.nodes[n.children()].iter().map(|c| c.rect);
                            rects.next().map(|r| rects.fold(r, |a, b| a.union(&b)))
                        };
                        assert_eq!(Some(n.rect), rect);
                    }
                }
                let image = store.to_bytes();
                let adopted = TrStarStore::adopt(SharedBytes::copy_of(&image)).expect("adopts");
                assert_eq!(adopted, store);
                assert_eq!(adopted.to_bytes(), image);
            }
        }
    }

    #[test]
    fn an_empty_decomposition_is_one_empty_root() {
        let region = |coords: &[(f64, f64)]| -> PolygonWithHoles {
            let ring = coords.iter().map(|&(x, y)| Point::new(x, y)).collect();
            Polygon::new(ring).unwrap().into()
        };
        // One vertex y, so no band; its shoelace sum rounds to -5.6e-17,
        // so `Polygon::new` accepts it.
        let flat = region(&[(0.0, 0.1), (0.3, 0.1), (2.9, 0.1)]);
        let square = region(&[(0.0, -1.0), (2.0, -1.0), (2.0, 1.0), (0.0, 1.0)]);
        assert!(decompose(&flat).is_empty());
        for m in CAPACITIES {
            let store = TrStarStore::from_regions([&flat, &square], m);
            let empty = store.get(0);
            assert_eq!((empty.nodes.len(), empty.num_trapezoids()), (1, 0));
            assert_eq!((empty.nodes[0].level, empty.nodes[0].count), (0, 0));
            let mut counts = OpCounts::new();
            assert!(!trees_intersect(empty, store.get(1), &mut counts));
            assert!(!trees_intersect(store.get(1), empty, &mut counts));
            assert!(!trees_intersect(empty, empty, &mut counts));
            assert_eq!(counts, OpCounts::new());
            let adopted = TrStarStore::adopt(SharedBytes::copy_of(&store.to_bytes()));
            assert_eq!(adopted.expect("adopts"), store);
        }
    }
}

//! Selections take the cheapest proof first — Step 1's MBR proof for
//! windows, then Step 3 as one pass — and that order must be invisible
//! in every answer:
//!
//! * a query's ids equal a linear scan over the exact regions, and arrive
//!   in Step-1 candidate order;
//! * its [`QueryStats`] (node visits, filter hits, exact tests) and exact
//!   operation counts equal the one-candidate-at-a-time chain — the MBR
//!   proof, then Step 3 — recomputed here from an R*-tree built apart
//!   from the engine over the same relation, Step 3 on the configured
//!   route ([`msj_exact::SelectionRefiner`]: the TR*-tree where it proves
//!   the answer, the region test elsewhere or without TR*).
//!
//! The engine descends the dataset's R*-tree on either join backend, so
//! the grid backend answers exactly as the default does.
//!
//! The probes go where an order change could show: windows that contain
//! whole objects, lie inside a MER, lie inside an object but outside its
//! MER, lie inside a hole or only touch a boundary; points on vertices,
//! on edges and inside holes. A window's MBR proof is a floating-point
//! claim there, so CI also runs this file in release.

use msj_approx::{Progressive, ProgressiveKind, ProgressiveStore};
use msj_core::{Backend, JoinConfig, QueryStats, SpatialEngine};
use msj_datagen::{generate_relation, BlobParams, LayoutParams};
use msj_exact::{ExactAlgorithm, OpCounts, SelectProbe, SelectionRefiner, TrStarStore};
use msj_geom::{ObjectId, Point, PolygonWithHoles, Rect, RelHandle, Relation};
use msj_sam::{PageLayout, RStarTree};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// The three plans a selection can run under: Step 3 with TR*-trees,
/// Step 3 on the region alone, and the grid's join backend.
fn configs() -> Vec<(&'static str, JoinConfig)> {
    vec![
        ("default", JoinConfig::default()),
        ("version1", JoinConfig::version1()),
        (
            "grid backend",
            JoinConfig::builder()
                .backend(Backend::PartitionedSweep {
                    tiles_per_axis: 6,
                    threads: 1,
                })
                .build(),
        ),
    ]
}

/// Small near-convex parcels, 4–10 vertices, as the filter-heavy join
/// workload draws them.
fn parcels(count: usize, seed: u64) -> Relation {
    let params = LayoutParams {
        world: msj_datagen::world(),
        count,
        vertices_mu_ln: 6f64.ln(),
        vertices_sigma_ln: 0.2,
        vertices_min: 4,
        vertices_max: 10,
        radius_frac: 0.15,
        shape: BlobParams {
            lobe_amp: 0.05,
            mid_amp: 0.0,
            rough_amp: 0.0,
            spikes: 0,
            spike_amp: 0.0,
            max_elongation: 1.3,
            ..BlobParams::default()
        },
    };
    generate_relation(&mut StdRng::seed_from_u64(seed), &params)
}

fn relations() -> Vec<(&'static str, Relation)> {
    vec![
        ("small_carto", msj_datagen::small_carto(40, 24.0, 4401)),
        ("parcels", parcels(100, 4402)),
        (
            "carto_with_holes",
            msj_datagen::carto_with_holes(30, 24.0, 4403),
        ),
    ]
}

/// A point strictly inside `region` (holes excluded) and outside `mer`,
/// from a 23 × 23 lattice over the region's MBR.
fn inside_outside_mer(region: &PolygonWithHoles, mer: Option<Rect>) -> Option<Point> {
    let b = region.mbr();
    (1..23)
        .flat_map(|i| (1..23).map(move |j| (i, j)))
        .find_map(|(i, j)| {
            let p = Point::new(
                b.xmin() + b.width() * i as f64 / 23.0,
                b.ymin() + b.height() * j as f64 / 23.0,
            );
            let strict = region.outer().contains_point_strict(p)
                && !region.holes().iter().any(|h| h.contains_point(p));
            (strict && mer.is_none_or(|m| !m.contains_point(p))).then_some(p)
        })
}

/// A point strictly inside one of `region`'s holes.
fn in_hole(region: &PolygonWithHoles) -> Option<Point> {
    region.holes().iter().find_map(|hole| {
        let b = hole.mbr();
        (1..17)
            .flat_map(|i| (1..17).map(move |j| (i, j)))
            .find_map(|(i, j)| {
                let p = Point::new(
                    b.xmin() + b.width() * i as f64 / 17.0,
                    b.ymin() + b.height() * j as f64 / 17.0,
                );
                hole.contains_point_strict(p).then_some(p)
            })
    })
}

/// A tiny window centred on `p`.
fn around(p: Point, half: f64) -> Rect {
    Rect::from_bounds(p.x - half, p.y - half, p.x + half, p.y + half)
}

/// Points and windows at every kind of contact an order change could
/// flip — inside every hole, the rest for every fifth object — plus a
/// coarse lattice of both.
fn probes(rel: &Relation) -> (Vec<Point>, Vec<Rect>) {
    let mers = ProgressiveStore::build(ProgressiveKind::Mer, rel);
    let (mut points, mut windows) = (Vec::new(), Vec::new());
    for (k, o) in rel.iter().enumerate() {
        let (b, region) = (o.mbr(), &o.region);
        let tiny = 1e-6 * b.width().max(b.height());
        if let Some(p) = in_hole(region) {
            windows.push(around(p, tiny));
            points.push(p);
        }
        if k % 5 != 0 {
            continue;
        }
        let mer = match mers.get(o.id) {
            Progressive::Mer(r) => Some(r),
            _ => None,
        };
        // Whole object inside, with and without slack.
        windows.push(b);
        windows.push(Rect::from_bounds(
            b.xmin() - tiny,
            b.ymin() - tiny,
            b.xmax() + tiny,
            b.ymax() + tiny,
        ));
        // Inside the MBR but off the object: its lower-left corner.
        let corner = Point::new(b.xmin(), b.ymin());
        windows.push(around(corner, tiny));
        points.push(corner);
        // Inside the MER, and the MER itself.
        if let Some(m) = mer {
            windows.push(m);
            windows.push(around(m.center(), 0.25 * m.width().min(m.height())));
        }
        // Inside the object but outside its MER.
        if let Some(p) = inside_outside_mer(region, mer) {
            windows.push(around(p, tiny));
            points.push(p);
        }
        // Touching the boundary only: a window right of the rightmost
        // vertex, and one above the topmost, each sharing just that
        // vertex's coordinate; plus a zero-width window on it.
        let verts = region.outer().vertices();
        let right = verts
            .iter()
            .copied()
            .fold(verts[0], |a, v| if v.x > a.x { v } else { a });
        let top = verts
            .iter()
            .copied()
            .fold(verts[0], |a, v| if v.y > a.y { v } else { a });
        windows.push(Rect::from_bounds(
            right.x,
            right.y - tiny,
            right.x + b.width(),
            right.y + tiny,
        ));
        windows.push(Rect::from_bounds(
            top.x - tiny,
            top.y,
            top.x + tiny,
            top.y + b.height(),
        ));
        windows.push(Rect::from_bounds(right.x, b.ymin(), right.x, b.ymax()));
        // Points on the boundary: vertices and edge midpoints, outer ring
        // and holes.
        for ring in std::iter::once(region.outer()).chain(region.holes()) {
            let v = ring.vertices();
            for k in (0..v.len()).step_by(3) {
                let next = v[(k + 1) % v.len()];
                points.push(v[k]);
                points.push(Point::new(0.5 * (v[k].x + next.x), 0.5 * (v[k].y + next.y)));
            }
        }
    }
    let world = rel.bounding_rect().expect("non-empty relation");
    for i in 0..12 {
        for j in 0..12 {
            let p = Point::new(
                world.xmin() + world.width() * (i as f64 + 0.37) / 12.0,
                world.ymin() + world.height() * (j as f64 + 0.61) / 12.0,
            );
            points.push(p);
            if (i + j) % 3 == 0 {
                windows.push(around(p, 0.03 * world.width()));
            }
        }
    }
    (points, windows)
}

/// One answer of the paper-order chain.
struct Chain {
    ids: Vec<ObjectId>,
    stats: QueryStats,
    ops: OpCounts,
}

/// What a probe shape needs for the chain — written out independently of
/// the engine's own `Probe` trait.
trait Shape: Copy + std::fmt::Debug + SelectProbe {
    /// Step 1's ids and node visits.
    fn candidates(self, tree: &RStarTree) -> (Vec<ObjectId>, u64);
    /// Whether the candidate's MBR alone proves a hit.
    fn proved_by_mbr(self, mbr: Rect) -> bool;
    fn in_linear_scan(self, region: &PolygonWithHoles) -> bool;
}

impl Shape for Point {
    fn candidates(self, tree: &RStarTree) -> (Vec<ObjectId>, u64) {
        let mut ids = Vec::new();
        let visits = tree.point_query(self, &mut (), &mut ids);
        (ids, visits)
    }
    fn proved_by_mbr(self, _: Rect) -> bool {
        false
    }
    fn in_linear_scan(self, region: &PolygonWithHoles) -> bool {
        region.contains_point(self)
    }
}

impl Shape for Rect {
    fn candidates(self, tree: &RStarTree) -> (Vec<ObjectId>, u64) {
        let mut ids = Vec::new();
        let visits = tree.window_query(self, &mut (), &mut ids);
        (ids, visits)
    }
    /// The MBR's x-extent inside the window's x-range, or its y-extent
    /// inside the y-range: the region, connected and touching all four
    /// sides of its MBR, then crosses the window.
    fn proved_by_mbr(self, mbr: Rect) -> bool {
        (self.xmin() <= mbr.xmin() && mbr.xmax() <= self.xmax())
            || (self.ymin() <= mbr.ymin() && mbr.ymax() <= self.ymax())
    }
    fn in_linear_scan(self, region: &PolygonWithHoles) -> bool {
        msj_exact::window::region_intersects_rect_reference(region, &self)
    }
}

/// The MBR-then-exact chain over one relation under one configuration,
/// built from the public tree and refiner — nothing of the engine's
/// resident state.
struct Reference<'a> {
    rel: &'a Relation,
    tree: RStarTree,
    step3: SelectionRefiner,
}

impl<'a> Reference<'a> {
    fn new(config: &JoinConfig, rel: &'a Relation) -> Self {
        // The engine's leaf layout: a MER's 16 B per entry beside the MBR.
        let layout = PageLayout::with_extra_bytes(config.page_size, 16);
        Reference {
            rel,
            tree: RStarTree::bulk_load(layout, rel.iter().map(|o| (o.mbr(), o.id))),
            step3: SelectionRefiner::new(
                RelHandle::from(Arc::new(rel.clone())),
                match config.exact {
                    ExactAlgorithm::TrStar { max_entries } => {
                        Some(Arc::new(TrStarStore::build(rel, max_entries)))
                    }
                    _ => None,
                },
            ),
        }
    }

    /// One candidate at a time: an MBR proof is a hit, the rest go to
    /// Step 3 on the configured route.
    fn answer<S: Shape>(&self, probe: S) -> Chain {
        let (candidates, node_visits) = probe.candidates(&self.tree);
        let mut chain = Chain {
            ids: Vec::new(),
            stats: QueryStats {
                candidates: candidates.len() as u64,
                node_visits,
                ..QueryStats::default()
            },
            ops: OpCounts::new(),
        };
        for id in candidates {
            if probe.proved_by_mbr(self.rel.object(id).mbr()) {
                chain.stats.filter_hits += 1;
                chain.ids.push(id);
            } else {
                chain.stats.exact_tests += 1;
                if self.step3.meets(id, &probe, &mut chain.ops) {
                    chain.ids.push(id);
                }
            }
        }
        chain
    }
}

/// Every object a linear scan over the exact regions finds, per probe.
fn linear_scan<S: Shape>(rel: &Relation, probes: &[S]) -> Vec<Vec<ObjectId>> {
    probes
        .iter()
        .map(|&probe| {
            rel.iter()
                .filter(|o| probe.in_linear_scan(&o.region))
                .map(|o| o.id)
                .collect()
        })
        .collect()
}

/// Checks one batch of the engine's answers against the linear scan and
/// the chain; returns the chain's counts summed over the batch.
fn check<S: Shape>(
    name: &str,
    chain: &Reference,
    probes: &[S],
    scans: &[Vec<ObjectId>],
    answers: Vec<msj_core::SelectionResponse>,
) -> QueryStats {
    assert_eq!(answers.len(), probes.len());
    let mut total = QueryStats::default();
    for ((answer, &probe), scan) in answers.iter().zip(probes).zip(scans) {
        let want = chain.answer(probe);
        let mut sorted = answer.ids.clone();
        sorted.sort_unstable();
        assert_eq!(
            &sorted, scan,
            "{name}: {probe:?} differs from the linear scan"
        );
        assert_eq!(answer.ids, want.ids, "{name}: {probe:?} ids or their order");
        assert_eq!(answer.stats, want.stats, "{name}: {probe:?} counts");
        assert_eq!(
            answer.exact_ops, want.ops,
            "{name}: {probe:?} exact op counts"
        );
        total.filter_hits += want.stats.filter_hits;
        total.exact_tests += want.stats.exact_tests;
    }
    total
}

#[test]
fn selections_answer_like_the_mbr_then_exact_chain() {
    for (rel_name, rel) in relations() {
        if rel_name == "carto_with_holes" {
            assert!(rel.iter().any(|o| !o.region.holes().is_empty()));
        }
        let (points, windows) = probes(&rel);
        let (point_scans, window_scans) = (linear_scan(&rel, &points), linear_scan(&rel, &windows));
        for (config_name, config) in configs() {
            let engine = SpatialEngine::new(config);
            let dataset = engine.register(rel.clone());
            let chain = Reference::new(&config, &rel);
            let name = format!("{config_name} on {rel_name}");
            let p = engine.point_query_batch(&dataset, &points);
            let p = check(&name, &chain, &points, &point_scans, p);
            let w = engine.window_query_batch(&dataset, &windows);
            let w = check(&name, &chain, &windows, &window_scans, w);
            // Both steps must have had work to do, or the comparison
            // proves nothing about their order.
            for (shape, t) in [("points", p), ("windows", w)] {
                assert!(t.exact_tests > 0, "{name}: no {shape} reached Step 3");
            }
            assert!(w.filter_hits > 0, "{name}: windows proved nothing");
        }
    }
}

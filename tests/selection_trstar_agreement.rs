//! A selection's Step 3 refines on the object's TR*-tree and decides only
//! beyond a proven margin (`msj_exact::SelectMargin`), which holds because
//! an object's trapezoids tile its region (`decompose` cuts at every
//! distinct vertex y); elsewhere the region test decides. This file holds
//! the precondition of that route: every answer the trees claim equals
//! the region test's, on the probes where a margin could be wrong —
//!
//! * points on vertices, on edge midpoints, 1–4 ulp to either side of an
//!   edge, on band cuts (every vertex y) and inside holes;
//! * windows that share a side or a corner with an edge or a vertex, and
//!   zero-width windows through a vertex;
//!
//! at three scales — a unit world, the same world scaled by 1e-9 (where
//! vertex y's lie closer than 1e-12) and offset by 1e9, each with a
//! needle and a wedge 0.4e-12 thin where the scale can hold one (a few
//! ulps thick at 1e9) — under
//! `JoinConfig::default()` and the default at the paper's M = 3, plus
//! one property test. The trees' own claims are checked per object; the
//! engine's answers (ids, order and `QueryStats`) against the same plan
//! with Step 3 on the region test, and in the unit world against a
//! linear scan too. Each scale prints how often the trees decided.
//!
//! The TR* join over the same relations is held to the quadratic
//! reference, with boxes that meet a thin part only along its needle or
//! wedge.
//!
//! Step 1's window proof from the MBR (`Rect::covers_an_extent_of`) is
//! held to the same standard with no approximation to round: at every
//! scale, each proof and each default-engine window answer, on both
//! backends, equals `region_intersects_rect` on every candidate, with
//! windows flush with, or one ulp short of, an MBR side.

use msj::core::{Backend, JoinConfig, SpatialEngine};
use msj::exact::window::region_intersects_rect_reference;
use msj::exact::{
    decompose, region_contains_point, region_intersects_rect, ExactAlgorithm, OpCounts,
    SelectionRefiner, TrStarStore, Trapezoid,
};
use msj::geom::{ObjectId, Point, Polygon, PolygonWithHoles, Rect, RelHandle, Relation};
use msj::sam::{PageLayout, RStarTree};
use proptest::prelude::*;
use std::sync::Arc;

fn configs() -> [(&'static str, JoinConfig); 2] {
    let m3 = JoinConfig::builder()
        .exact(ExactAlgorithm::TrStar { max_entries: 3 })
        .build();
    [("default", JoinConfig::default()), ("default at M = 3", m3)]
}

/// `rel` with every vertex mapped through `f` (an affine map that keeps
/// the orientation). An object whose mapped ring has no area left in
/// `f64` (a tiny hole 1e9 from the origin) is left out.
fn mapped(rel: &Relation, f: impl Fn(Point) -> Point) -> Relation {
    let ring = |p: &Polygon| Polygon::new(p.vertices().iter().map(|&v| f(v)).collect()).ok();
    Relation::from_regions(rel.iter().filter_map(|o| {
        let outer = ring(o.region.outer())?;
        let holes = o
            .region
            .holes()
            .iter()
            .map(ring)
            .collect::<Option<Vec<_>>>()?;
        Some(PolygonWithHoles::new(outer, holes))
    }))
}

/// A square of side `s` at `(x, y)` with a horizontal needle `2 · thin`
/// tall at its base out of its right side (tip at `x + 3s`), and a wedge
/// along its top that ends `thin` above it (tip at `x + 4s`).
fn thin_parts(x: f64, y: f64, s: f64, thin: f64) -> [PolygonWithHoles; 2] {
    let ring = |v: &[(f64, f64)]| {
        let v = v.iter().map(|&(dx, dy)| Point::new(x + dx * s, y + dy * s));
        Polygon::new(v.collect()).expect("thin part").into()
    };
    let t = thin / s;
    [
        ring(&[
            (0.0, 0.0),
            (1.0, 0.0),
            (1.0, 0.5),
            (3.0, 0.5 + t),
            (1.0, 0.5 + 2.0 * t),
            (1.0, 1.0),
            (0.0, 1.0),
        ]),
        ring(&[
            (0.0, 0.0),
            (1.0, 0.0),
            (1.0, 1.0),
            (4.0, 1.0 + 0.9 * t),
            (0.0, 1.0 + t),
        ]),
    ]
}

/// `rel` plus [`thin_parts`] beside its bounding box, `thin` tall or a
/// few ulps where the coordinates cannot hold that.
fn with_thin_parts(rel: Relation, thin: f64) -> Relation {
    let b = rel.bounding_rect().expect("non-empty");
    let s = 0.05 * b.width();
    let thin = thin.max(8.0 * (b.ymax().next_up() - b.ymax()));
    let parts = thin_parts(b.xmax() + s, b.ymin() + s, s, thin);
    Relation::from_regions(rel.iter().map(|o| o.region.clone()).chain(parts))
}

/// The canonical relations in a unit world, scaled by 1e-9, and offset by
/// 1e9, each with its thin parts.
fn scales() -> Vec<(&'static str, Relation)> {
    let base = Relation::from_regions(
        msj::datagen::small_carto(40, 24.0, 5101)
            .iter()
            .chain(msj::datagen::carto_with_holes(20, 24.0, 5102).iter())
            .map(|o| o.region.clone()),
    );
    let unit = mapped(&base, |p| Point::new(p.x * 1e-3, p.y * 1e-3));
    let tiny = mapped(&unit, |p| Point::new(p.x * 1e-9, p.y * 1e-9));
    let offset = mapped(&unit, |p| Point::new(p.x + 1e9, p.y + 1e9));
    vec![
        ("tiny (unit x 1e-9)", with_thin_parts(tiny, 0.4e-12)),
        ("offset (unit + 1e9)", with_thin_parts(offset, 0.4e-12)),
        ("unit", with_thin_parts(unit, 0.4e-12)),
    ]
}

/// `x` moved `k` ulps (negative: down).
fn ulps(x: f64, k: i32) -> f64 {
    (0..k.unsigned_abs()).fold(x, |x, _| if k > 0 { x.next_up() } else { x.next_down() })
}

/// The adversarial points of one region.
fn points(region: &PolygonWithHoles) -> Vec<Point> {
    let b = region.mbr();
    let mut out = Vec::new();
    for ring in std::iter::once(region.outer()).chain(region.holes()) {
        let v = ring.vertices();
        for (k, &a) in v.iter().enumerate() {
            let next = v[(k + 1) % v.len()];
            let mid = Point::new(0.5 * (a.x + next.x), 0.5 * (a.y + next.y));
            out.extend([a, mid]);
            for d in [-4, -3, -2, -1, 1, 2, 3, 4] {
                out.push(Point::new(ulps(mid.x, d), mid.y));
                out.push(Point::new(mid.x, ulps(mid.y, d)));
            }
            // On the band cut through this vertex, across the object.
            for t in [0.1, 0.37, 0.5, 0.81] {
                out.push(Point::new(b.xmin() + t * b.width(), a.y));
            }
        }
    }
    for hole in region.holes() {
        let h = hole.mbr();
        out.push(h.center());
        out.push(Point::new(h.center().x, h.ymin() + 0.3 * h.height()));
    }
    out
}

/// The adversarial windows of one region.
fn windows(region: &PolygonWithHoles) -> Vec<Rect> {
    let b = region.mbr();
    let s = 0.05 * b.width().max(b.height());
    let mut out = Vec::new();
    let v = region.outer().vertices();
    for (k, &a) in v.iter().enumerate() {
        let next = v[(k + 1) % v.len()];
        let mid = Point::new(0.5 * (a.x + next.x), 0.5 * (a.y + next.y));
        for c in [a, mid] {
            // A corner on it, in each quadrant; a side through it.
            out.push(Rect::from_bounds(c.x, c.y, c.x + s, c.y + s));
            out.push(Rect::from_bounds(c.x - s, c.y, c.x, c.y + s));
            out.push(Rect::from_bounds(c.x - s, c.y - s, c.x, c.y));
            out.push(Rect::from_bounds(c.x, c.y - s, c.x + s, c.y));
            out.push(Rect::from_bounds(c.x, c.y - s, c.x + s, c.y + s));
            out.push(Rect::from_bounds(c.x - s, c.y, c.x + s, c.y + s));
        }
        // Zero-width and zero-height windows through the vertex.
        out.push(Rect::from_bounds(a.x, b.ymin(), a.x, b.ymax()));
        out.push(Rect::from_bounds(b.xmin(), a.y, b.xmax(), a.y));
    }
    for hole in region.holes() {
        let h = hole.mbr();
        out.push(Rect::from_bounds(
            h.xmin(),
            h.ymin(),
            h.center().x,
            h.center().y,
        ));
    }
    out
}

/// Claims the trees made and how many there were chances to.
#[derive(Default)]
struct Tally {
    decided: u64,
    probed: u64,
}

/// The Step-3 route of a selection over `rel` refining on `trees`.
fn refiner(rel: &Relation, trees: TrStarStore) -> SelectionRefiner {
    SelectionRefiner::new(
        RelHandle::from(Arc::new(rel.clone())),
        Some(Arc::new(trees)),
    )
}

/// Every point and window the trees of `trees` claim an answer for, checked
/// against the region test of the object the probe was made for.
fn check_trees(rel: &Relation, trees: TrStarStore, tally: &mut Tally) {
    let mut ops = OpCounts::new();
    let trees = refiner(rel, trees);
    for o in rel.iter() {
        for p in points(&o.region) {
            tally.probed += 1;
            if let Some(claim) = trees.classify(o.id, &p, &mut ops) {
                tally.decided += 1;
                let reference = region_contains_point(&o.region, p, &mut OpCounts::new());
                assert_eq!(claim, reference, "object {} point {p:?}", o.id);
            }
        }
        for w in windows(&o.region) {
            tally.probed += 1;
            if let Some(claim) = trees.classify(o.id, &w, &mut ops) {
                tally.decided += 1;
                let reference = region_intersects_rect_reference(&o.region, &w);
                assert_eq!(claim, reference, "object {} window {w:?}", o.id);
            }
        }
    }
}

fn scan_points(rel: &Relation, p: Point) -> Vec<ObjectId> {
    let mut ops = OpCounts::new();
    let hits = rel
        .iter()
        .filter(|o| region_contains_point(&o.region, p, &mut ops));
    hits.map(|o| o.id).collect()
}

fn scan_windows(rel: &Relation, w: &Rect) -> Vec<ObjectId> {
    let hits = rel
        .iter()
        .filter(|o| region_intersects_rect_reference(&o.region, w));
    hits.map(|o| o.id).collect()
}

#[test]
fn trstar_claims_equal_the_region_test_at_every_scale() {
    for (scale, rel) in scales() {
        let (mut tally, mut answered) = (Tally::default(), 0usize);
        for (name, config) in configs() {
            let ExactAlgorithm::TrStar { max_entries } = config.exact else {
                unreachable!("every configuration here refines on TR*");
            };
            check_trees(&rel, TrStarStore::build(&rel, max_entries), &mut tally);

            // The same plan with Step 3 on the region test: what the
            // engine answered before selections refined on TR*.
            let region_twin = (config.to_builder())
                .exact(ExactAlgorithm::PlaneSweep { restrict: true })
                .build();
            let (engine, twin) = (SpatialEngine::new(config), SpatialEngine::new(region_twin));
            let (dataset, twin_dataset) =
                (engine.register(rel.clone()), twin.register(rel.clone()));
            // Every fourth object's probes through both engines, whose
            // candidates include the neighbours the probes touch.
            for o in rel.iter().step_by(4) {
                let points = points(&o.region);
                let got = engine.point_query_batch(&dataset, &points);
                let want = twin.point_query_batch(&twin_dataset, &points);
                for ((got, want), p) in got.iter().zip(&want).zip(&points) {
                    let at = format!("{scale}, {name}: point {p:?}");
                    assert_eq!((&got.ids, got.stats), (&want.ids, want.stats), "{at}");
                    if scale == "unit" {
                        let mut ids = got.ids.clone();
                        ids.sort_unstable();
                        assert_eq!(ids, scan_points(&rel, *p), "{at}");
                    }
                }
                let windows = windows(&o.region);
                let got = engine.window_query_batch(&dataset, &windows);
                let want = twin.window_query_batch(&twin_dataset, &windows);
                for ((got, want), w) in got.iter().zip(&want).zip(&windows) {
                    let at = format!("{scale}, {name}: window {w:?}");
                    assert_eq!((&got.ids, got.stats), (&want.ids, want.stats), "{at}");
                    if scale == "unit" {
                        let mut ids = got.ids.clone();
                        ids.sort_unstable();
                        assert_eq!(ids, scan_windows(&rel, w), "{at}");
                    }
                }
                answered += points.len() + windows.len();
            }
        }
        println!(
            "{scale}: trees decided {} of {} adversarial probes ({:.1} %), 0 disagreements; \
             {answered} engine answers equal the region route's",
            tally.decided,
            tally.probed,
            100.0 * tally.decided as f64 / tally.probed.max(1) as f64,
        );
        if scale == "unit" {
            assert!(tally.decided > 0, "the trees must decide something");
        }
    }
}

/// Windows whose sides coincide with `b`'s — flush with one side, one
/// ulp short of it, zero-width or zero-height on it — where Step 1's MBR
/// proof ([`Rect::covers_an_extent_of`]) is decided by one comparison.
fn mbr_windows(b: Rect) -> Vec<Rect> {
    let s = 0.05 * b.width().max(b.height());
    let (x0, y0, x1, y1) = (b.xmin(), b.ymin(), b.xmax(), b.ymax());
    let (cx, cy) = (b.center().x, b.center().y);
    vec![
        b,
        Rect::from_bounds(x0, y0 - s, x1, y0),
        Rect::from_bounds(x0, y1, x1, y1 + s),
        Rect::from_bounds(x0 - s, y0, x0, y1),
        Rect::from_bounds(x1, y0, x1 + s, y1),
        Rect::from_bounds(x0, cy, x1, cy),
        Rect::from_bounds(cx, y0, cx, y1),
        Rect::from_bounds(x0, y0, x0, y1),
        Rect::from_bounds(x0, y1, x1, y1),
        Rect::from_bounds(x0.next_up(), y0, x1, y1.next_down()),
        Rect::from_bounds(x0, cy, x1.next_down(), cy + s),
        Rect::from_bounds(cx, y0.next_up(), cx + s, y1),
    ]
}

/// Step 1 proves a window's hit from the MBR alone. Every proof, and
/// every answer of the default engine on both backends, equals
/// `region_intersects_rect` on every candidate: at every scale, on holed
/// regions, needles and slivers, with windows flush with an MBR side and
/// zero-width or zero-height windows.
#[test]
fn window_answers_equal_the_region_test_on_every_candidate() {
    let grid = JoinConfig::builder()
        .backend(Backend::PartitionedSweep {
            tiles_per_axis: 6,
            threads: 1,
        })
        .build();
    for (scale, rel) in scales() {
        assert!(rel.iter().any(|o| !o.region.holes().is_empty()), "{scale}");
        let keys = rel.iter().map(|o| (o.mbr(), o.id));
        let tree = RStarTree::bulk_load(PageLayout::with_extra_bytes(4096, 16), keys);
        let engines = [JoinConfig::default(), grid].map(|config| {
            let engine = SpatialEngine::new(config);
            let dataset = engine.register(rel.clone());
            (engine, dataset)
        });
        let (mut proved_hits, mut candidates) = (0usize, 0usize);
        for o in rel.iter() {
            let windows: Vec<Rect> = (windows(&o.region).into_iter())
                .chain(mbr_windows(o.mbr()))
                .collect();
            let meets = |id: ObjectId, w: &Rect| {
                region_intersects_rect(&rel.object(id).region, w, &mut OpCounts::new())
            };
            for w in &windows {
                let (mut ids, mut proved) = (Vec::new(), Vec::new());
                tree.window_query_proving(*w, &mut (), &mut ids, &mut proved);
                for (&id, &proof) in ids.iter().zip(&proved) {
                    assert!(!proof || meets(id, w), "{scale}: {id} proved in {w:?}");
                    proved_hits += proof as usize;
                }
                candidates += ids.len();
            }
            for (engine, dataset) in &engines {
                let answers = engine.window_query_batch(dataset, &windows);
                for (answer, w) in answers.iter().zip(&windows) {
                    let mut got = answer.ids.clone();
                    got.sort_unstable();
                    let want: Vec<ObjectId> = (rel.iter())
                        .filter(|c| c.mbr().intersects(w) && meets(c.id, w))
                        .map(|c| c.id)
                        .collect();
                    let backend = engine.config().join.backend;
                    assert_eq!(got, want, "{scale}, {backend:?}: window {w:?}");
                }
            }
        }
        println!("{scale}: Step 1 proved {proved_hits} of {candidates} window candidates");
        assert!(proved_hits > 0, "{scale}: nothing proved");
    }
}

/// A star-shaped region of `radii.len()` vertices around `(cx, cy)`.
fn star(cx: f64, cy: f64, radii: &[f64]) -> PolygonWithHoles {
    let n = radii.len() as f64;
    let vertices = radii.iter().enumerate().map(|(i, r)| {
        let t = i as f64 / n * std::f64::consts::TAU;
        Point::new(cx + r * t.cos(), cy + r * t.sin())
    });
    Polygon::new(vertices.collect()).expect("star").into()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn trstar_claims_equal_the_region_test_on_random_stars(
        seed in 0u64..100_000,
        n in 5usize..24,
        scale_k in 0usize..3,
        m in 2usize..9,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let scale = [1e-9, 1.0, 1e6][scale_k];
        let radii: Vec<f64> = (0..n).map(|_| scale * rng.gen_range(0.2..3.0)).collect();
        let (cx, cy) = (scale * rng.gen_range(-1e3..1e3), scale * rng.gen_range(-1e3..1e3));
        let region = star(cx, cy, &radii);
        let rel = Relation::from_regions([region.clone()]);
        let trees = refiner(&rel, TrStarStore::build(&rel, m));
        let v = region.outer().vertices();
        let mut ops = OpCounts::new();
        for k in 0..32 {
            // A point on an edge, then moved a few ulps in x.
            let (t, d) = (rng.gen_range(0.0..1.0), rng.gen_range(-3i32..4));
            let (a, b) = (v[k % v.len()], v[(k + 1) % v.len()]);
            let on = Point::new(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y));
            let p = Point::new(ulps(on.x, d), on.y);
            if let Some(claim) = trees.classify(0, &p, &mut ops) {
                prop_assert_eq!(claim, region_contains_point(&region, p, &mut OpCounts::new()));
            }
            let w = Rect::from_bounds(p.x, p.y, p.x + t * scale, p.y + (1.0 - t) * scale);
            if let Some(claim) = trees.classify(0, &w, &mut ops) {
                prop_assert_eq!(claim, region_intersects_rect_reference(&region, &w));
            }
        }
    }
}

/// Whether `t` covers `p`: `p` lies in its y-range and between its sides
/// there.
fn covers(t: &Trapezoid, p: Point) -> bool {
    let f = (p.y - t.y_lo) / (t.y_hi - t.y_lo);
    let (xl, xr) = (
        t.x_lo.0 + f * (t.x_hi.0 - t.x_lo.0),
        t.x_lo.1 + f * (t.x_hi.1 - t.x_lo.1),
    );
    t.y_lo <= p.y && p.y <= t.y_hi && xl <= p.x && p.x <= xr
}

/// Every vertex y is a cut, so the trapezoids cover the thin point of a
/// needle and of a wedge 0.4e-12 thin, and every claim the trees make
/// there, and on the adversarial points, is the region test's.
#[test]
fn the_trapezoids_cover_needles_and_wedges_thinner_than_1e_12() {
    let parts = thin_parts(0.0, 0.0, 0.01, 0.4e-12);
    let rel = Relation::from_regions(parts.clone());
    let trees = refiner(&rel, TrStarStore::build(&rel, 6));
    let mut ops = OpCounts::new();
    for (id, region) in parts.iter().enumerate() {
        // A point of the thin part, at the y of its tip.
        let thin = Point::new(0.025, region.outer().vertices()[3].y);
        assert!(region_contains_point(region, thin, &mut OpCounts::new()));
        let covered = decompose(region).iter().any(|t| covers(t, thin));
        assert!(covered, "part {id}: no trapezoid covers the thin part");
        for p in points(region).into_iter().chain([thin]) {
            let reference = region_contains_point(region, p, &mut OpCounts::new());
            if let Some(claim) = trees.classify(id as ObjectId, &p, &mut ops) {
                assert_eq!(claim, reference, "part {id} {p:?}");
            }
            assert_eq!(
                trees.meets(id as ObjectId, &p, &mut ops),
                reference,
                "part {id} {p:?}"
            );
        }
    }
}

/// The relation the joins below pair with one of [`scales`]: its objects
/// shifted by a fraction of their spread, and one box per thin part that
/// meets it only along its needle or its wedge (the last two ids).
fn join_partner(rel: &Relation) -> Relation {
    let n = rel.len() - 2;
    // The needle part's square: its MBR is `s` tall from `(x, y)`.
    let needle = rel.object(n as ObjectId).mbr();
    let (x, y, s) = (needle.xmin(), needle.ymin(), needle.height());
    let base = Relation::from_regions(rel.iter().take(n).map(|o| o.region.clone()));
    let (dx, dy) = (0.37 * s, 0.21 * s);
    let shifted = mapped(&base, |p| Point::new(p.x + dx, p.y + dy));
    let r#box = |x0: f64, y0: f64, x1: f64, y1: f64| {
        // At 1e9 the shoelace sum of a quadrilateral this small is
        // rounding noise (multiples of 128), and for a rectangle it
        // cancels to 0, which `Polygon::new` refuses: the top-left corner
        // is raised until it reads otherwise.
        let ring = (0..16).find_map(|k| {
            let v = [(x0, y0), (x1, y0), (x1, y1), (x0, y1 + 0.01 * k as f64)];
            Polygon::new(v.map(|(u, w)| Point::new(x + u * s, y + w * s)).to_vec()).ok()
        });
        PolygonWithHoles::from(ring.expect("box"))
    };
    let boxes = [r#box(2.0, 0.3, 2.5, 0.7), r#box(2.5, 0.8, 3.5, 1.2)];
    Relation::from_regions(shifted.iter().map(|o| o.region.clone()).chain(boxes))
}

/// The default engine's join of each scale's relation with
/// [`join_partner`], against `version1()` with the quadratic exact step:
/// equal at unit scale and at 1e9; at 1e-9 it holds every reference pair
/// (the SAT's absolute tolerance adds pairs there, see ROADMAP); and the
/// two boxes that meet a thin part only along its needle or wedge are hits.
#[test]
fn trstar_join_finds_every_pair_the_quadratic_reference_finds() {
    let reference = JoinConfig::version1()
        .to_builder()
        .exact(ExactAlgorithm::Quadratic)
        .build();
    for (scale, rel) in scales() {
        let partner = join_partner(&rel);
        let pairs = |config| {
            let engine = SpatialEngine::new(config);
            let (a, b) = (
                engine.register(rel.clone()),
                engine.register(partner.clone()),
            );
            let mut pairs = engine.prepare_join(&a, &b).run().pairs;
            pairs.sort_unstable();
            pairs
        };
        let (got, want) = (pairs(JoinConfig::default()), pairs(reference));
        let missed: Vec<_> = want
            .iter()
            .filter(|p| got.binary_search(p).is_err())
            .collect();
        let extra = got.len() + missed.len() - want.len();
        println!(
            "{scale}: {} reference pairs, {} missed, {extra} extra",
            want.len(),
            missed.len()
        );
        assert!(missed.is_empty(), "{scale}: TR* misses {missed:?}");
        if !scale.starts_with("tiny") {
            assert_eq!(extra, 0, "{scale}: TR* adds pairs");
        }
        let (n, m) = (rel.len() as ObjectId, partner.len() as ObjectId);
        for thin in [(n - 2, m - 2), (n - 1, m - 1)] {
            assert!(
                want.contains(&thin),
                "{scale}: {thin:?} not a reference hit"
            );
            assert!(got.contains(&thin), "{scale}: {thin:?} missed");
        }
    }
}

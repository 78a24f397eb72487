//! Cross-algorithm agreement: the quadratic test, the plane sweep (with
//! and without restriction) and the TR*-tree must implement the *same*
//! closed-region intersection predicate on arbitrary generated shapes.
//! The TR*-tree side runs over the flat arena's views; a golden
//! operation count pins its traversal order and the packer's trees.

use msj_datagen::{blob, carve_hole, BlobParams, HoleParams};
use msj_exact::{quadratic_intersects, sweep_intersects, trees_intersect, OpCounts, TrStarStore};
use msj_geom::{fnv1a64, Point, PolygonWithHoles};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn blob_region(seed: u64, vertices: usize, cx: f64, cy: f64) -> PolygonWithHoles {
    let params = BlobParams {
        vertices,
        radius: 3.0,
        ..BlobParams::default()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    blob(&mut rng, Point::new(cx, cy), &params).into()
}

/// `blob_region` with a lake carved out when the outline admits one.
fn holed_region(seed: u64, vertices: usize, cx: f64, cy: f64) -> PolygonWithHoles {
    let outer = blob_region(seed, vertices, cx, cy).outer().clone();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4C41_4B45);
    carve_hole(&mut rng, outer, &HoleParams::default())
}

/// The TR* answer for one pair at node capacity `m`.
fn trstar(a: &PolygonWithHoles, b: &PolygonWithHoles, m: usize, counts: &mut OpCounts) -> bool {
    let store = TrStarStore::from_regions([a, b], m);
    trees_intersect(store.get(0), store.get(1), counts)
}

/// The seeded 300-pair set behind the golden counts: every third `a`
/// and every fifth `b` carries a hole, offsets sweep a 24 × 24 window.
fn golden_pairs() -> Vec<(PolygonWithHoles, PolygonWithHoles)> {
    (0..300u64)
        .map(|i| {
            let (na, nb) = (6 + (i * 7 % 74) as usize, 6 + (i * 11 % 74) as usize);
            let dx = (i * 37 % 240) as f64 / 10.0 - 12.0;
            let dy = (i * 53 % 240) as f64 / 10.0 - 12.0;
            let a = if i % 3 == 0 {
                holed_region(1_000 + i, na, 0.0, 0.0)
            } else {
                blob_region(1_000 + i, na, 0.0, 0.0)
            };
            let b = if i % 5 == 0 {
                holed_region(5_000 + i, nb, dx, dy)
            } else {
                blob_region(5_000 + i, nb, dx, dy)
            };
            (a, b)
        })
        .collect()
}

/// Totals recorded on `golden_pairs()`: hits, rectangle tests, trapezoid
/// tests per node capacity, over the packed trees (one leaf up to `M`
/// trapezoids, else leaves of `M − 1` in decomposition order). A
/// traversal that visits pairs in another order, or a packer that groups
/// trapezoids otherwise, finds the hits at other moments and moves the
/// two counts; a leaf loop that counts a hit's pretests differently
/// (`j + 1`, not the whole leaf) moves the middle column alone. The hits
/// are the quadratic test's and never move.
const GOLDEN: [(usize, u64, u64, u64); 5] = [
    (3, 135, 4973, 218),
    (4, 135, 5242, 209),
    (5, 135, 6063, 209),
    (6, 135, 6973, 203),
    (8, 135, 9066, 198),
];

/// Node capacities every agreement property runs at: the minimum, the
/// paper's, the default (6), and wide enough that most of these trees
/// are a single leaf — wider than the traversal's leaf lanes at 16.
const CAPACITIES: [usize; 6] = [2, 3, 4, 6, 8, 16];

#[test]
fn arena_traversal_repeats_the_recorded_counts() {
    let pairs = golden_pairs();
    assert!(pairs.iter().filter(|(a, _)| !a.holes().is_empty()).count() > 30);
    for (m, hits, rect_rect, trapezoid) in GOLDEN {
        let mut counts = OpCounts::new();
        let mut found = 0u64;
        for (a, b) in &pairs {
            let mut c = OpCounts::new();
            let expect = quadratic_intersects(a, b, &mut c);
            assert_eq!(sweep_intersects(a, b, true, &mut c), expect);
            assert_eq!(trstar(a, b, m, &mut counts), expect, "M={m}");
            found += u64::from(expect);
        }
        assert_eq!(
            (found, counts.rect_rect, counts.trapezoid),
            (hits, rect_rect, trapezoid),
            "M={m}"
        );
    }
}

/// Length and FNV-1a of `TrStarStore::to_bytes()` as the packer writes
/// it: the image pins the trapezoid order, every leaf and directory run
/// and the node count the packer chooses.
#[test]
fn packer_writes_the_recorded_arena_bytes() {
    let plain = msj_datagen::skewed_carto(1_500, 24.0, 7);
    let image = TrStarStore::build(&plain, 3).to_bytes();
    assert_eq!(image.len(), 2_387_640);
    assert_eq!(fnv1a64(&image), 0x141a_97db_8c5f_1f76);

    let holed = msj_datagen::carto_with_holes(600, 30.0, 11);
    let image = TrStarStore::build(&holed, 5).to_bytes();
    assert_eq!(image.len(), 1_067_944);
    assert_eq!(fnv1a64(&image), 0xa379_18cf_fb4c_d225);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    #[test]
    fn arena_agrees_with_quadratic_and_sweep_with_holes(
        seed1 in 0u64..10_000,
        seed2 in 0u64..10_000,
        n1 in 6usize..80,
        n2 in 6usize..80,
        dx in -8.0f64..8.0,
        dy in -8.0f64..8.0,
    ) {
        let a = holed_region(seed1, n1, 0.0, 0.0);
        let b = holed_region(seed2, n2, dx, dy);
        let mut c = OpCounts::new();
        let quad = quadratic_intersects(&a, &b, &mut c);
        prop_assert_eq!(quad, sweep_intersects(&a, &b, true, &mut c), "quadratic vs sweep (seeds {} {})", seed1, seed2);
        for m in CAPACITIES {
            prop_assert_eq!(quad, trstar(&a, &b, m, &mut c), "quadratic vs TR* M={} (seeds {} {})", m, seed1, seed2);
        }
    }

    #[test]
    fn all_exact_algorithms_agree(
        seed1 in 0u64..10_000,
        seed2 in 0u64..10_000,
        n1 in 6usize..80,
        n2 in 6usize..80,
        dx in -12.0f64..12.0,
        dy in -12.0f64..12.0,
    ) {
        let a = blob_region(seed1, n1, 0.0, 0.0);
        let b = blob_region(seed2, n2, dx, dy);

        let mut c = OpCounts::new();
        let quad = quadratic_intersects(&a, &b, &mut c);
        let sweep_r = sweep_intersects(&a, &b, true, &mut c);
        let sweep_u = sweep_intersects(&a, &b, false, &mut c);

        prop_assert_eq!(quad, sweep_r, "quadratic vs restricted sweep (seeds {} {})", seed1, seed2);
        prop_assert_eq!(quad, sweep_u, "quadratic vs unrestricted sweep (seeds {} {})", seed1, seed2);
        for m in CAPACITIES {
            prop_assert_eq!(quad, trstar(&a, &b, m, &mut c), "quadratic vs TR* M={} (seeds {} {})", m, seed1, seed2);
        }
    }

    #[test]
    fn scaled_containment_agreement(
        seed in 0u64..10_000,
        n in 8usize..60,
        factor in 0.05f64..0.45,
    ) {
        // A shrunk copy inside the original: always an intersection
        // (containment), and the hard case for edge-based algorithms.
        let a = blob_region(seed, n, 0.0, 0.0);
        let centroid = a.outer().centroid();
        if !a.contains_point(centroid) {
            // Concave blob whose centroid is outside: skip (the shrunk
            // copy is not guaranteed to be contained).
            return Ok(());
        }
        let b = a.scaled_about(centroid, factor);
        let mut c = OpCounts::new();
        let quad = quadratic_intersects(&a, &b, &mut c);
        let sweep = sweep_intersects(&a, &b, true, &mut c);
        prop_assert_eq!(quad, sweep, "containment: quad vs sweep (seed {})", seed);
        for m in CAPACITIES {
            prop_assert_eq!(quad, trstar(&a, &b, m, &mut c), "containment: quad vs TR* M={} (seed {})", m, seed);
        }
    }

    #[test]
    fn trstar_m_variants_agree(
        seed1 in 0u64..5_000,
        seed2 in 0u64..5_000,
        dx in -10.0f64..10.0,
    ) {
        let a = blob_region(seed1, 30, 0.0, 0.0);
        let b = blob_region(seed2, 30, dx, 1.0);
        let mut expected = None;
        for m in [3usize, 4, 5, 8] {
            let mut c = OpCounts::new();
            let r = trstar(&a, &b, m, &mut c);
            match expected {
                None => expected = Some(r),
                Some(e) => prop_assert_eq!(e, r, "M={} disagrees (seeds {} {})", m, seed1, seed2),
            }
        }
    }

    #[test]
    fn far_apart_blobs_never_intersect(
        seed1 in 0u64..5_000,
        seed2 in 0u64..5_000,
    ) {
        // Blob radius is bounded by 4·elongation·r ≈ 20; distance 100
        // guarantees disjointness. All algorithms must say "no".
        let a = blob_region(seed1, 24, 0.0, 0.0);
        let b = blob_region(seed2, 24, 100.0, 100.0);
        let mut c = OpCounts::new();
        prop_assert!(!quadratic_intersects(&a, &b, &mut c));
        prop_assert!(!sweep_intersects(&a, &b, true, &mut c));
        prop_assert!(!trstar(&a, &b, 3, &mut c));
    }
}

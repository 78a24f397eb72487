//! Exactness of the horizontal-base trapezoid test: wherever
//! `Trapezoid::decide_fast` answers, the answer is the slice-generic
//! SAT's on the same corner rings — on generic pairs and on the
//! configurations built to sit on the decision boundary — the pairs it
//! declines really do reach the SAT fallback, and that fallback (the
//! fixed-width `convex_intersect`) answers what the slice-generic SAT
//! does, repeated corners of triangle rings included.

use msj_exact::{Trapezoid, XSpan};
use msj_geom::convex_intersect_slices;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The adversarial families, by index.
const KINDS: usize = 10;

fn generic(rng: &mut StdRng) -> Trapezoid {
    let y_lo = rng.gen_range(-10.0..10.0);
    let left = rng.gen_range(-10.0..10.0);
    let top_left = left + rng.gen_range(-3.0..3.0);
    Trapezoid {
        y_lo,
        y_hi: y_lo + rng.gen_range(0.01..6.0),
        x_lo: XSpan(left, left + rng.gen_range(0.0..6.0)),
        x_hi: XSpan(top_left, top_left + rng.gen_range(0.0..6.0)),
    }
}

/// The x of `t`'s right side at height `y`.
fn right_at(t: &Trapezoid, y: f64) -> f64 {
    t.x_lo.1 + (y - t.y_lo) / (t.y_hi - t.y_lo) * (t.x_hi.1 - t.x_lo.1)
}

/// `x` moved by `k` units in the last place.
fn nudge(x: f64, k: i64) -> f64 {
    f64::from_bits((x.to_bits() as i64 + if x >= 0.0 { k } else { -k }) as u64)
}

/// One pair of family `kind`, then scaled (and for the large scale also
/// shifted) so coordinates sit near 1e-6, 1 or 1e+6.
fn pair(rng: &mut StdRng, kind: usize) -> (Trapezoid, Trapezoid) {
    let mut a = generic(rng);
    let mut b = generic(rng);
    let ulps = rng.gen_range(-4..=4);
    match kind {
        // Generic position, past the MBR pretest like every pair the
        // traversal hands over.
        0 => {
            while !a.mbr().intersects(&b.mbr()) {
                b = generic(rng);
            }
        }
        // b's left side runs along a's right side (shared side), give
        // or take a few ulps.
        1 => {
            b.y_lo = a.y_lo;
            b.y_hi = a.y_hi;
            b.x_lo = XSpan(nudge(a.x_lo.1, ulps), a.x_lo.1 + 2.0);
            b.x_hi = XSpan(nudge(a.x_hi.1, ulps), a.x_hi.1 + 2.0);
        }
        // One shared corner: b's bottom-left on a's top-right.
        2 => {
            b.y_lo = a.y_hi;
            b.y_hi = a.y_hi + 1.5;
            b.x_lo = XSpan(nudge(a.x_hi.1, ulps), a.x_hi.1 + 1.0);
        }
        // Degenerate triangle poking at a's right side from inside its
        // y-range.
        3 => {
            let y = 0.5 * (a.y_lo + a.y_hi);
            let tip = nudge(right_at(&a, y), ulps * 8);
            b.y_lo = a.y_lo - 1.0;
            b.y_hi = y;
            b.x_lo = XSpan(tip + 1.0, tip + 3.0);
            b.x_hi = XSpan(tip, tip);
        }
        // Zero height.
        4 => b.y_hi = b.y_lo,
        // A sliver thinner than the margin, inside or just outside a.
        5 => {
            let y = 0.5 * (a.y_lo + a.y_hi);
            let x = nudge(right_at(&a, y), ulps * 4);
            b.y_lo = a.y_lo;
            b.y_hi = a.y_hi;
            b.x_lo = XSpan(x, nudge(x, 2));
            b.x_hi = XSpan(x, nudge(x, 3));
        }
        // Near-horizontal slanted sides in a thin common band.
        6 => {
            b.y_lo = a.y_hi - 1e-9;
            b.y_hi = b.y_lo + 3e-9;
            b.x_lo = XSpan(a.x_hi.1 - 4.0, a.x_hi.1 - 3.0);
            b.x_hi = XSpan(a.x_hi.1 + 3.0, a.x_hi.1 + 4.0);
        }
        // Touching bases: b stands on a's top side.
        7 => {
            b.y_lo = a.y_hi;
            b.y_hi = a.y_hi + 2.0;
        }
        // Two triangles, apex on apex give or take a few ulps: both
        // rings repeat a corner (a's at the end, b's at the start).
        8 => {
            a.x_hi = XSpan(a.x_hi.0, a.x_hi.0);
            b.y_lo = a.y_hi;
            b.y_hi = a.y_hi + 1.5;
            b.x_lo = XSpan(nudge(a.x_hi.0, ulps), nudge(a.x_hi.0, ulps));
        }
        // b to a's left at the band bottom and to its right at the top:
        // the sides cross inside the band.
        _ => {
            b.y_lo = a.y_lo;
            b.y_hi = a.y_hi;
            b.x_lo = XSpan(a.x_lo.0 - 3.0, a.x_lo.0 - 1.0);
            b.x_hi = XSpan(a.x_hi.1 + 1.0, a.x_hi.1 + 3.0);
        }
    }
    let (scale, shift) = match rng.gen_range(0..4) {
        0 => (1e-6, 0.0),
        1 => (1e6, 0.0),
        2 => (1.0, 1e6),
        _ => (1.0, 0.0),
    };
    let map = |t: Trapezoid| Trapezoid {
        y_lo: t.y_lo * scale + shift,
        y_hi: t.y_hi * scale + shift,
        x_lo: XSpan(t.x_lo.0 * scale + shift, t.x_lo.1 * scale + shift),
        x_hi: XSpan(t.x_hi.0 * scale + shift, t.x_hi.1 * scale + shift),
    };
    (map(a), map(b))
}

/// `Some(fast answer)` after holding it (both argument orders, and the
/// public `intersects`) to the SAT.
fn check(a: &Trapezoid, b: &Trapezoid) -> Result<Option<bool>, String> {
    let sat = convex_intersect_slices(&a.ring(), &b.ring());
    for (p, q) in [(a, b), (b, a)] {
        if p.decide_fast(q).is_some_and(|fast| fast != sat) {
            return Err(format!(
                "fast test {:?} but SAT {sat} on {p:?} vs {q:?}",
                !sat
            ));
        }
        if p.intersects(q) != convex_intersect_slices(&p.ring(), &q.ring()) {
            return Err(format!(
                "intersects() diverges from the SAT on {p:?} vs {q:?}"
            ));
        }
    }
    Ok(a.decide_fast(b))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    #[test]
    fn fast_answers_are_sat_answers(seed in any::<u64>(), kind in 0..KINDS) {
        let (a, b) = pair(&mut StdRng::seed_from_u64(seed), kind);
        if let Err(why) = check(&a, &b) {
            prop_assert!(false, "{} (seed {}, kind {})", why, seed, kind);
        }
    }
}

/// The counter the exactness argument needs: both fast outcomes occur,
/// generic pairs almost never fall back, and every boundary family does
/// reach the SAT.
#[test]
fn the_fallback_is_reached_where_it_should_be() {
    let mut rng = StdRng::seed_from_u64(12);
    for kind in 0..KINDS {
        let (mut yes, mut no, mut fallback) = (0u32, 0u32, 0u32);
        for _ in 0..4000 {
            let (a, b) = pair(&mut rng, kind);
            match check(&a, &b).unwrap_or_else(|why| panic!("{why} (kind {kind})")) {
                Some(true) => yes += 1,
                Some(false) => no += 1,
                None => fallback += 1,
            }
        }
        println!("kind {kind}: {yes} fast yes, {no} fast no, {fallback} SAT fallbacks");
        match kind {
            0 => {
                assert!(yes > 100 && no > 100, "both fast outcomes on generic pairs");
                // What remains: sides crossing inside the band, and 1e-6
                // scale pairs the SAT's absolute `+ 1.0` tolerance term
                // calls intersecting although a gap separates them.
                assert!(
                    fallback < 200,
                    "generic pairs fall back {fallback} times of 4000"
                );
            }
            _ => assert!(fallback > 0, "family {kind} never reached the SAT"),
        }
    }
}

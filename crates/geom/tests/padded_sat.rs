//! The fixed-width form of `convex_intersect` (rings of ≤ 5 vertices,
//! padded to five by repeating the last) is held to the slice-generic
//! SAT it specialises: equal answers on seeded ring pairs of 1..=8
//! vertices — so both the padded path and the hand-over to the slice
//! path at 6 — built to sit on the boundary and at the edges of `f64`.
//! Run in release too (CI does): the claim is about optimised code.

use msj_geom::{convex_intersect, convex_intersect_slices, Point};

/// SplitMix64: the test needs a few million reproducible draws, not a
/// dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next() >> 11) as f64 / (1u64 << 53) as f64)
    }
}

/// A convex CCW ring of `n` vertices on an ellipse around `center`
/// (`n` = 1, 2: a point, a segment).
fn ring(rng: &mut Rng, n: usize, center: Point, radius: f64) -> Vec<Point> {
    let (rx, ry) = (radius * rng.range(0.2, 1.0), radius * rng.range(0.2, 1.0));
    let phase = rng.range(0.0, std::f64::consts::TAU);
    (0..n)
        .map(|i| {
            let t = phase + (i as f64 + rng.range(0.0, 0.9)) / n as f64 * std::f64::consts::TAU;
            center + Point::new(rx * t.cos(), ry * t.sin())
        })
        .collect()
}

/// A ring of `n` vertices standing on `a`'s edge `i` from the outside:
/// the shared edge reversed, then points pushed out along its normal.
/// With `on_edge` the ring touches `a` in one vertex in the middle of
/// that edge instead.
fn standing_on(rng: &mut Rng, a: &[Point], n: usize, on_edge: bool) -> Vec<Point> {
    let i = rng.below(a.len());
    let (p, q) = (a[i], a[(i + 1) % a.len()]);
    let along = q - p;
    let out = Point::new(along.y, -along.x);
    let mut b = if on_edge {
        vec![p.lerp(q, rng.range(0.1, 0.9))]
    } else {
        vec![q, p]
    };
    while b.len() < n {
        let k = b.len() as f64;
        b.push(p + along * rng.range(-0.5, 1.5) + out * (k * rng.range(0.2, 1.0)));
    }
    b.truncate(n);
    b
}

/// The mutations the argument for bit-equality names: a duplicated
/// consecutive vertex, a negative zero, a NaN.
fn mutate(rng: &mut Rng, ring: &mut [Point]) {
    let i = rng.below(ring.len());
    match rng.below(12) {
        0 | 1 => ring[(i + 1) % ring.len()] = ring[i],
        2 => ring[i].x = -0.0,
        3 => ring[i] = Point::new(-0.0, 0.0),
        4 => ring[i].y = f64::NAN,
        _ => {}
    }
}

#[test]
fn padded_form_answers_what_the_slice_form_answers() {
    let mut rng = Rng(22);
    let (mut pairs, mut hits, mut nan_pairs) = (0u32, 0u32, 0u32);
    let mut by_len = [0u32; 9];
    for round in 0..12_000 {
        // Coordinates near 1e-9, 1 and 1e9 (the last also far from the
        // origin, so projections cancel).
        let (scale, center) = match round % 4 {
            0 => (1e-9, Point::new(0.0, 0.0)),
            1 => (1e9, Point::new(3e9, -2e9)),
            2 => (1.0, Point::new(0.0, 0.0)),
            _ => (
                1.0,
                Point::new(rng.range(-50.0, 50.0), rng.range(-50.0, 50.0)),
            ),
        };
        let (na, nb) = (1 + rng.below(8), 1 + rng.below(8));
        let mut a = ring(&mut rng, na, center, scale);
        let mut b = match rng.below(6) {
            // Generic position, about half of them overlapping.
            0 | 1 => {
                let offset = Point::new(rng.range(-1.5, 1.5), rng.range(-1.5, 1.5)) * scale;
                ring(&mut rng, nb, center + offset, scale)
            }
            2 => standing_on(&mut rng, &a, nb, false),
            3 => standing_on(&mut rng, &a, nb, true),
            4 => a.clone(),
            _ => ring(&mut rng, nb, center + Point::new(5.0, 5.0) * scale, scale),
        };
        mutate(&mut rng, &mut a);
        mutate(&mut rng, &mut b);

        for (p, q) in [(&a, &b), (&b, &a)] {
            let expect = convex_intersect_slices(p, q);
            assert_eq!(
                convex_intersect(p, q),
                expect,
                "round {round}: {p:?} vs {q:?}"
            );
            pairs += 1;
            hits += u32::from(expect);
        }
        nan_pairs += u32::from(a.iter().chain(&b).any(|v| v.x.is_nan() || v.y.is_nan()));
        by_len[a.len()] += 1;
    }
    // The generator reaches what it is meant to reach.
    assert!(pairs >= 20_000);
    assert!(
        hits > pairs / 5 && hits < 4 * pairs / 5,
        "{hits} of {pairs}"
    );
    assert!(nan_pairs > 500, "{nan_pairs} pairs with a NaN vertex");
    assert!(by_len[1..].iter().all(|&n| n > 1_000), "{by_len:?}");
}

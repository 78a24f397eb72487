//! Runtime-dispatched wide kernels for Step 1's hot loops.
//!
//! Two kernels, each SIMD arm kept for a measured gain on its layer
//! (2-vCPU x86-64 VM, seed 1, pinned, medians of interleaved runs):
//!
//! * [`rects_vs_rect`] — one query rectangle against SoA MBR columns:
//!   the R*-tree join's window restriction over per-node repacked entry
//!   columns, the default engine's one kernel. Traced `core.step1_ms`
//!   over 6 rotated rounds, AVX2 / SSE2 / scalar: `join_refine_heavy`
//!   7.93 / 8.12 / 8.14 ms, `join_filter_heavy` 8.32 / 8.64 / 9.09 ms
//!   (AVX2 below scalar in 11 of 12 rounds, SSE2 in 9);
//! * [`sweep_scan`] — the forward plane-sweep inner run of
//!   `msj-partition`'s tile sweeps: scan a window of x-sorted entries,
//!   stop at the first `xmin > bound`, emit the indices whose y-extent
//!   overlaps the query band. `repro kernels`' sweep row: 5.7 / 3.6–3.9
//!   / 2.6–2.8 ns per pair test, scalar / SSE2 / AVX2 (SSE2 1.5 ×, AVX2
//!   2.1–2.2 × scalar, three runs).
//!
//! Selections test a stored MER with one comparison per candidate in
//! their filter loop: id-gathered masks for it gained nothing under
//! `version3()` and were removed.
//!
//! Each kernel has three implementations selected by [`KernelDispatch`]:
//! a portable scalar loop (the semantic reference), an SSE2 path and an
//! AVX2 path (`core::arch::x86_64` behind `is_x86_feature_detected!`).
//! The wide paths are outcome-identical to the scalar reference for
//! *arbitrary* inputs, including NaN lanes:
//!
//! * every wide comparison uses an **ordered** predicate (`_CMP_LE_OQ`,
//!   `_CMP_GT_OQ`), which is `false` when either operand is NaN —
//!   exactly like the scalar `<=` / `>` it replaces;
//! * the sweep stop test is `xmin > bound` (break) in both paths, so a
//!   NaN `xmin` lane *continues* the scan in both;
//! * a rectangle with a NaN bound meets nothing in either path.
//!
//! Dispatch is chosen **once per join** ([`KernelDispatch::select`]) and
//! threaded through every call site; `force_scalar` (config) or the
//! `MSJ_FORCE_SCALAR` environment variable pin the reference path.

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64 as x86;

use crate::Rect;

/// Environment variable that pins every kernel to the scalar reference
/// path, overriding runtime CPU feature detection (any non-empty value
/// other than `0`; read when the process first selects a dispatch).
pub const FORCE_SCALAR_ENV: &str = "MSJ_FORCE_SCALAR";

/// The kernel implementation family, chosen once per join (or probe
/// session) and threaded through every hot loop under it.
///
/// A SIMD dispatch exists only by detection: [`KernelDispatch::detect`],
/// [`KernelDispatch::select`] / [`KernelDispatch::auto`] and
/// [`KernelDispatch::all_available`] are its only sources, so holding one
/// proves the CPU runs its instructions. [`KernelDispatch::Scalar`] runs
/// anywhere and is public; the SIMD paths cannot be named outside this
/// crate:
///
/// ```
/// use msj_geom::KernelDispatch;
/// let scalar = KernelDispatch::Scalar;
/// assert!(KernelDispatch::all_available().contains(&scalar));
/// ```
///
/// ```compile_fail,E0599
/// let avx2 = msj_geom::KernelDispatch::Avx2;
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct KernelDispatch(Path);

/// Prints the path alone (`Avx2`), as reports and fingerprints read it.
impl std::fmt::Debug for KernelDispatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

/// The path a [`KernelDispatch`] names. Private: a wide variant is built
/// only in this module, after the feature it needs was detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
enum Path {
    /// [`KernelDispatch::Scalar`].
    Scalar,
    /// 2-wide `f64` lanes via `core::arch::x86_64` SSE2.
    Sse2,
    /// 4-wide `f64` lanes via `core::arch::x86_64` AVX2.
    Avx2,
}

impl KernelDispatch {
    /// Portable scalar loops — the semantic reference every wide path is
    /// checked against.
    #[allow(non_upper_case_globals)]
    pub const Scalar: KernelDispatch = KernelDispatch(Path::Scalar);

    /// The widest path this CPU supports, by runtime feature detection.
    /// Non-x86-64 targets always get [`KernelDispatch::Scalar`].
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                return KernelDispatch(Path::Avx2);
            }
            if std::arch::is_x86_feature_detected!("sse2") {
                return KernelDispatch(Path::Sse2);
            }
        }
        KernelDispatch::Scalar
    }

    /// The dispatch a join should run with: the scalar reference when
    /// `force_scalar` is set (configuration knob) or the
    /// [`FORCE_SCALAR_ENV`] environment variable is present and not `0`,
    /// otherwise the detected widest path.
    pub fn select(force_scalar: bool) -> Self {
        if force_scalar || env_force_scalar() {
            KernelDispatch::Scalar
        } else {
            KernelDispatch::detect()
        }
    }

    /// [`KernelDispatch::select`] with only the environment override —
    /// what call sites without a configuration handle use.
    pub fn auto() -> Self {
        KernelDispatch::select(false)
    }

    /// Stable label for metrics and reports.
    pub fn label(&self) -> &'static str {
        match self.0 {
            Path::Scalar => "scalar",
            Path::Sse2 => "sse2",
            Path::Avx2 => "avx2",
        }
    }

    /// Every dispatch this CPU can actually run, scalar first — the
    /// matrix agreement tests and the bench iterate over this.
    pub fn all_available() -> Vec<KernelDispatch> {
        let mut all = vec![KernelDispatch::Scalar];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("sse2") {
                all.push(KernelDispatch(Path::Sse2));
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                all.push(KernelDispatch(Path::Avx2));
            }
        }
        all
    }
}

/// Read once per process: [`KernelDispatch::auto`] sits on per-join and
/// per-probe paths that must not allocate, and reading a set variable
/// does.
fn env_force_scalar() -> bool {
    static FORCED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *FORCED.get_or_init(|| {
        std::env::var_os(FORCE_SCALAR_ENV).is_some_and(|v| !v.is_empty() && v != *"0")
    })
}

// ---------------------------------------------------------------------
// Kernel 1: forward-sweep inner run over x-sorted SoA columns.
// ---------------------------------------------------------------------

/// Scans `from..` of the x-sorted columns, stopping at the first entry
/// with `xmin[k] > bound_x` (the plane-sweep break), and pushes the
/// index of every scanned entry whose y-extent overlaps the query band
/// (`q_ymin <= ymax[k] && ymin[k] <= q_ymax`). Returns the number of
/// entries scanned before the break — the `pair_tests` / `mbr_tests`
/// statistic of the callers, which must stay byte-identical across
/// dispatch paths.
///
/// Indices are pushed in ascending order, exactly like the scalar loop.
#[allow(clippy::too_many_arguments)]
pub fn sweep_scan(
    d: KernelDispatch,
    bound_x: f64,
    q_ymin: f64,
    q_ymax: f64,
    xmin: &[f64],
    ymin: &[f64],
    ymax: &[f64],
    from: usize,
    hits: &mut Vec<u32>,
) -> u64 {
    // The wide arms load `ymin` / `ymax` at every index below
    // `xmin.len()`, so unequal columns are refused before any load, and a
    // start at or past the end scans nothing (it would also overflow the
    // lane loop's `k + 4`).
    assert!(
        xmin.len() == ymin.len() && xmin.len() == ymax.len(),
        "sweep_scan columns differ in length"
    );
    if from >= xmin.len() {
        return 0;
    }
    match d.0 {
        Path::Scalar => sweep_scan_scalar(bound_x, q_ymin, q_ymax, xmin, ymin, ymax, from, hits),
        // SAFETY: a `Path::Sse2` dispatch is built only after SSE2 was
        // detected (`Path` is private to this module); the three columns
        // are of equal length (asserted above).
        #[cfg(target_arch = "x86_64")]
        Path::Sse2 => unsafe {
            sweep_scan_sse2(bound_x, q_ymin, q_ymax, xmin, ymin, ymax, from, hits)
        },
        // SAFETY: a `Path::Avx2` dispatch is built only after AVX2 was
        // detected on this CPU; column lengths as for the SSE2 arm.
        #[cfg(target_arch = "x86_64")]
        Path::Avx2 => unsafe {
            sweep_scan_avx2(bound_x, q_ymin, q_ymax, xmin, ymin, ymax, from, hits)
        },
        #[cfg(not(target_arch = "x86_64"))]
        _ => sweep_scan_scalar(bound_x, q_ymin, q_ymax, xmin, ymin, ymax, from, hits),
    }
}

/// The reference loop. NaN `xmin` never satisfies `> bound_x`, so the
/// scan continues past it; NaN y-extents never satisfy the band test.
#[allow(clippy::too_many_arguments)]
fn sweep_scan_scalar(
    bound_x: f64,
    q_ymin: f64,
    q_ymax: f64,
    xmin: &[f64],
    ymin: &[f64],
    ymax: &[f64],
    from: usize,
    hits: &mut Vec<u32>,
) -> u64 {
    let mut tests = 0u64;
    for k in from..xmin.len() {
        if xmin[k] > bound_x {
            break;
        }
        tests += 1;
        if (q_ymin <= ymax[k]) & (ymin[k] <= q_ymax) {
            hits.push(k as u32);
        }
    }
    tests
}

/// # Safety
///
/// The CPU must support AVX2, and `ymin` / `ymax` must be at least as
/// long as `xmin`, the only length the 4-lane loads are checked against.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn sweep_scan_avx2(
    bound_x: f64,
    q_ymin: f64,
    q_ymax: f64,
    xmin: &[f64],
    ymin: &[f64],
    ymax: &[f64],
    from: usize,
    hits: &mut Vec<u32>,
) -> u64 {
    use x86::*;
    let n = xmin.len();
    let bound = _mm256_set1_pd(bound_x);
    let band_lo = _mm256_set1_pd(q_ymin);
    let band_hi = _mm256_set1_pd(q_ymax);
    let mut tests = 0u64;
    let mut k = from;
    while k + 4 <= n {
        let xs = _mm256_loadu_pd(xmin.as_ptr().add(k));
        // Stop lanes: xmin > bound (ordered: NaN lanes keep scanning,
        // like the scalar break test).
        let stop = _mm256_movemask_pd(_mm256_cmp_pd::<{ _CMP_GT_OQ }>(xs, bound)) as u32;
        let live = if stop == 0 {
            4
        } else {
            stop.trailing_zeros() as usize
        };
        if live > 0 {
            let ylo = _mm256_loadu_pd(ymin.as_ptr().add(k));
            let yhi = _mm256_loadu_pd(ymax.as_ptr().add(k));
            let c1 = _mm256_cmp_pd::<{ _CMP_LE_OQ }>(band_lo, yhi);
            let c2 = _mm256_cmp_pd::<{ _CMP_LE_OQ }>(ylo, band_hi);
            let mut m = (_mm256_movemask_pd(_mm256_and_pd(c1, c2)) as u32) & ((1u32 << live) - 1);
            while m != 0 {
                let lane = m.trailing_zeros() as usize;
                hits.push((k + lane) as u32);
                m &= m - 1;
            }
            tests += live as u64;
        }
        if live < 4 {
            return tests;
        }
        k += 4;
    }
    tests + sweep_scan_scalar(bound_x, q_ymin, q_ymax, xmin, ymin, ymax, k, hits)
}

/// # Safety
///
/// The CPU must support SSE2, and `ymin` / `ymax` must be at least as
/// long as `xmin`, the only length the 2-lane loads are checked against.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
#[allow(clippy::too_many_arguments)]
unsafe fn sweep_scan_sse2(
    bound_x: f64,
    q_ymin: f64,
    q_ymax: f64,
    xmin: &[f64],
    ymin: &[f64],
    ymax: &[f64],
    from: usize,
    hits: &mut Vec<u32>,
) -> u64 {
    use x86::*;
    let n = xmin.len();
    let bound = _mm_set1_pd(bound_x);
    let band_lo = _mm_set1_pd(q_ymin);
    let band_hi = _mm_set1_pd(q_ymax);
    let mut tests = 0u64;
    let mut k = from;
    while k + 2 <= n {
        let xs = _mm_loadu_pd(xmin.as_ptr().add(k));
        let stop = _mm_movemask_pd(_mm_cmpgt_pd(xs, bound)) as u32;
        let live = if stop == 0 {
            2
        } else {
            stop.trailing_zeros() as usize
        };
        if live > 0 {
            let ylo = _mm_loadu_pd(ymin.as_ptr().add(k));
            let yhi = _mm_loadu_pd(ymax.as_ptr().add(k));
            let c = _mm_and_pd(_mm_cmple_pd(band_lo, yhi), _mm_cmple_pd(ylo, band_hi));
            let mut m = (_mm_movemask_pd(c) as u32) & ((1u32 << live) - 1);
            while m != 0 {
                let lane = m.trailing_zeros() as usize;
                hits.push((k + lane) as u32);
                m &= m - 1;
            }
            tests += live as u64;
        }
        if live < 2 {
            return tests;
        }
        k += 2;
    }
    tests + sweep_scan_scalar(bound_x, q_ymin, q_ymax, xmin, ymin, ymax, k, hits)
}

// ---------------------------------------------------------------------
// Kernel 2: one query rectangle vs SoA MBR columns (full scan).
// ---------------------------------------------------------------------

/// Pushes the index of every column entry whose rectangle intersects
/// `q` (closed semantics, [`Rect::intersects`]), in ascending order.
/// The R*-tree directory-pruning and window-restriction loops run this
/// over per-node repacked entry columns.
pub fn rects_vs_rect(
    d: KernelDispatch,
    q: &Rect,
    xmin: &[f64],
    ymin: &[f64],
    xmax: &[f64],
    ymax: &[f64],
    hits: &mut Vec<u32>,
) {
    // The wide arms load every column at every index below `xmin.len()`.
    assert!(
        xmin.len() == ymin.len() && xmin.len() == xmax.len() && xmin.len() == ymax.len(),
        "rects_vs_rect columns differ in length"
    );
    match d.0 {
        Path::Scalar => rects_vs_rect_scalar(q, xmin, ymin, xmax, ymax, 0, hits),
        // SAFETY: a `Path::Sse2` dispatch is built only after SSE2 was
        // detected; the four columns are of equal length (asserted above).
        #[cfg(target_arch = "x86_64")]
        Path::Sse2 => unsafe { rects_vs_rect_sse2(q, xmin, ymin, xmax, ymax, hits) },
        // SAFETY: a `Path::Avx2` dispatch is built only after AVX2 was
        // detected; column lengths as for the SSE2 arm.
        #[cfg(target_arch = "x86_64")]
        Path::Avx2 => unsafe { rects_vs_rect_avx2(q, xmin, ymin, xmax, ymax, hits) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => rects_vs_rect_scalar(q, xmin, ymin, xmax, ymax, 0, hits),
    }
}

fn rects_vs_rect_scalar(
    q: &Rect,
    xmin: &[f64],
    ymin: &[f64],
    xmax: &[f64],
    ymax: &[f64],
    from: usize,
    hits: &mut Vec<u32>,
) {
    let (qx0, qy0, qx1, qy1) = (q.xmin(), q.ymin(), q.xmax(), q.ymax());
    for k in from..xmin.len() {
        if (xmin[k] <= qx1) & (qx0 <= xmax[k]) & (ymin[k] <= qy1) & (qy0 <= ymax[k]) {
            hits.push(k as u32);
        }
    }
}

/// # Safety
///
/// The CPU must support AVX2, and `ymin` / `xmax` / `ymax` must be at
/// least as long as `xmin` (the loop bound of every 4-lane load).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn rects_vs_rect_avx2(
    q: &Rect,
    xmin: &[f64],
    ymin: &[f64],
    xmax: &[f64],
    ymax: &[f64],
    hits: &mut Vec<u32>,
) {
    use x86::*;
    let n = xmin.len();
    let qx0 = _mm256_set1_pd(q.xmin());
    let qy0 = _mm256_set1_pd(q.ymin());
    let qx1 = _mm256_set1_pd(q.xmax());
    let qy1 = _mm256_set1_pd(q.ymax());
    let mut k = 0usize;
    while k + 4 <= n {
        let c1 = _mm256_cmp_pd::<{ _CMP_LE_OQ }>(_mm256_loadu_pd(xmin.as_ptr().add(k)), qx1);
        let c2 = _mm256_cmp_pd::<{ _CMP_LE_OQ }>(qx0, _mm256_loadu_pd(xmax.as_ptr().add(k)));
        let c3 = _mm256_cmp_pd::<{ _CMP_LE_OQ }>(_mm256_loadu_pd(ymin.as_ptr().add(k)), qy1);
        let c4 = _mm256_cmp_pd::<{ _CMP_LE_OQ }>(qy0, _mm256_loadu_pd(ymax.as_ptr().add(k)));
        let m = _mm256_and_pd(_mm256_and_pd(c1, c2), _mm256_and_pd(c3, c4));
        let mut bits = _mm256_movemask_pd(m) as u32;
        while bits != 0 {
            let lane = bits.trailing_zeros() as usize;
            hits.push((k + lane) as u32);
            bits &= bits - 1;
        }
        k += 4;
    }
    rects_vs_rect_scalar(q, xmin, ymin, xmax, ymax, k, hits);
}

/// # Safety
///
/// The CPU must support SSE2, and `ymin` / `xmax` / `ymax` must be at
/// least as long as `xmin` (the loop bound of every 2-lane load).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn rects_vs_rect_sse2(
    q: &Rect,
    xmin: &[f64],
    ymin: &[f64],
    xmax: &[f64],
    ymax: &[f64],
    hits: &mut Vec<u32>,
) {
    use x86::*;
    let n = xmin.len();
    let qx0 = _mm_set1_pd(q.xmin());
    let qy0 = _mm_set1_pd(q.ymin());
    let qx1 = _mm_set1_pd(q.xmax());
    let qy1 = _mm_set1_pd(q.ymax());
    let mut k = 0usize;
    while k + 2 <= n {
        let c1 = _mm_cmple_pd(_mm_loadu_pd(xmin.as_ptr().add(k)), qx1);
        let c2 = _mm_cmple_pd(qx0, _mm_loadu_pd(xmax.as_ptr().add(k)));
        let c3 = _mm_cmple_pd(_mm_loadu_pd(ymin.as_ptr().add(k)), qy1);
        let c4 = _mm_cmple_pd(qy0, _mm_loadu_pd(ymax.as_ptr().add(k)));
        let m = _mm_and_pd(_mm_and_pd(c1, c2), _mm_and_pd(c3, c4));
        let mut bits = _mm_movemask_pd(m) as u32;
        while bits != 0 {
            let lane = bits.trailing_zeros() as usize;
            hits.push((k + lane) as u32);
            bits &= bits - 1;
        }
        k += 2;
    }
    rects_vs_rect_scalar(q, xmin, ymin, xmax, ymax, k, hits);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Point;

    #[test]
    fn repr_c_rect_is_four_doubles() {
        assert_eq!(std::mem::size_of::<Rect>(), 4 * 8);
        assert_eq!(std::mem::size_of::<Point>(), 2 * 8);
        let r = Rect::from_bounds(1.0, 2.0, 3.0, 4.0);
        // SAFETY: `Rect` is `#[repr(C)]` over two `#[repr(C)]` `Point`s of
        // two `f64`s each — 32 bytes, `f64`-aligned, no padding (the two
        // size asserts above) — and `r` outlives `view`.
        let view = unsafe { std::slice::from_raw_parts(&r as *const Rect as *const f64, 4) };
        assert_eq!(view, &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn dispatch_selection_honors_force_scalar() {
        assert_eq!(KernelDispatch::select(true), KernelDispatch::Scalar);
        assert_eq!(format!("{:?}", KernelDispatch::Scalar), "Scalar");
        assert!(KernelDispatch::all_available().contains(&KernelDispatch::auto()));
        assert_eq!(KernelDispatch::all_available()[0], KernelDispatch::Scalar);
        for d in KernelDispatch::all_available() {
            assert!(!d.label().is_empty());
        }
    }

    /// Deterministic pseudo-random f64 in a small range, with occasional
    /// NaN lanes when `with_nan`.
    fn gen_vals(seed: u64, n: usize, with_nan: bool) -> Vec<f64> {
        let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let u = (s >> 33) as f64 / (1u64 << 31) as f64;
                if with_nan && (s >> 7).is_multiple_of(11) {
                    f64::NAN
                } else {
                    u * 20.0 - 10.0
                }
            })
            .collect()
    }

    /// A copy of a column that starts 8 bytes past a 16-byte boundary: a
    /// sub-slice at offset 1 of a buffer one element longer (at 0 where
    /// the allocator did not align the buffer to 16), so no lane load at
    /// an even index is 16- or 32-byte aligned.
    struct Misaligned(Vec<f64>, usize);

    impl Misaligned {
        fn new(col: &[f64]) -> Self {
            let mut buf = vec![f64::NAN; col.len() + 1];
            let at = usize::from((buf.as_ptr() as usize).is_multiple_of(16));
            buf[at..at + col.len()].copy_from_slice(col);
            Misaligned(buf, at)
        }

        fn col(&self) -> &[f64] {
            &self.0[self.1..self.1 + self.0.len() - 1]
        }
    }

    /// Every kernel must agree with the scalar reference at every lane
    /// boundary (`len % 4 ∈ {0,1,2,3}`, and smaller; `n = 0` is the
    /// zero-length column), with NaN lanes mixed in, on columns as
    /// allocated and on [`Misaligned`] copies of them.
    #[test]
    fn sweep_scan_matches_scalar_at_lane_boundaries() {
        for n in 0..=13usize {
            for with_nan in [false, true] {
                for seed in 1..=6u64 {
                    let mut xmin = gen_vals(seed, n, with_nan);
                    // Mostly sorted like real input, but leave NaNs and
                    // occasional disorder in place: the kernel contract
                    // is agreement on *arbitrary* input.
                    xmin.sort_unstable_by(|a, b| {
                        a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal)
                    });
                    let ymin = gen_vals(seed + 100, n, with_nan);
                    let ymax = gen_vals(seed + 200, n, with_nan);
                    let shifted = [&xmin, &ymin, &ymax].map(|c| Misaligned::new(c));
                    let [sx, sy, sz] = shifted.each_ref().map(Misaligned::col);
                    for from in [0usize, 1, n / 2, n.saturating_sub(1)] {
                        for bound in [-5.0, 0.0, 5.0, f64::NAN] {
                            let mut want = Vec::new();
                            let t0 = sweep_scan_scalar(
                                bound, -3.0, 4.0, &xmin, &ymin, &ymax, from, &mut want,
                            );
                            for (x, y, z) in [(&xmin[..], &ymin[..], &ymax[..]), (sx, sy, sz)] {
                                for d in KernelDispatch::all_available() {
                                    let mut got = Vec::new();
                                    let t =
                                        sweep_scan(d, bound, -3.0, 4.0, x, y, z, from, &mut got);
                                    let at = x.as_ptr() as usize % 16;
                                    let cell =
                                        format!("{d:?} n={n} from={from} bound={bound} at={at}");
                                    assert_eq!(got, want, "{cell}");
                                    assert_eq!(t, t0, "{cell}: pair-test count diverged");
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Whether `f` panics.
    fn panics(f: impl FnOnce() + std::panic::UnwindSafe) -> bool {
        std::panic::catch_unwind(f).is_err()
    }

    /// The callers' length obligations are checked in every build, on
    /// every dispatch, before a wide load: a column shorter or longer
    /// than `xmin` panics, and a start at or past the end scans nothing.
    #[test]
    fn kernel_columns_are_checked_before_any_load() {
        let col = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<f64>>();
        for d in KernelDispatch::all_available() {
            for (xn, yn, zn) in [(9, 8, 9), (9, 9, 8), (8, 9, 9), (9, 0, 9), (9, 9, 10)] {
                let (x, y, z) = (col(xn), col(yn), col(zn));
                assert!(
                    panics(|| {
                        sweep_scan(d, f64::MAX, -1e9, 1e9, &x, &y, &z, 0, &mut Vec::new());
                    }),
                    "{d:?} sweep_scan took columns {xn}/{yn}/{zn}"
                );
            }
            for short in 0..4 {
                let mut cols = [col(9), col(9), col(9), col(9)];
                cols[short].pop();
                let [x0, y0, x1, y1] = &cols;
                let q = Rect::from_bounds(-1e9, -1e9, 1e9, 1e9);
                assert!(
                    panics(|| rects_vs_rect(d, &q, x0, y0, x1, y1, &mut Vec::new())),
                    "{d:?} rects_vs_rect took a short column {short}"
                );
            }
            let x = col(9);
            for from in [9, 10, 13, usize::MAX - 3, usize::MAX] {
                let mut hits = Vec::new();
                let tests = sweep_scan(d, f64::MAX, -1e9, 1e9, &x, &x, &x, from, &mut hits);
                assert_eq!((tests, hits.len()), (0, 0), "{d:?} from {from}");
            }
        }
    }

    /// As for [`sweep_scan_matches_scalar_at_lane_boundaries`].
    #[test]
    fn rects_vs_rect_matches_scalar_at_lane_boundaries() {
        let q = Rect::from_bounds(-2.0, -2.0, 3.0, 3.0);
        for n in 0..=11usize {
            for with_nan in [false, true] {
                let xmin = gen_vals(7, n, with_nan);
                let ymin = gen_vals(8, n, with_nan);
                let xmax: Vec<f64> = xmin.iter().map(|v| v + 2.0).collect();
                let ymax: Vec<f64> = ymin.iter().map(|v| v + 2.0).collect();
                let mut want = Vec::new();
                rects_vs_rect_scalar(&q, &xmin, &ymin, &xmax, &ymax, 0, &mut want);
                let cols = [&xmin, &ymin, &xmax, &ymax];
                let shifted = cols.map(|c| Misaligned::new(c));
                for [x0, y0, x1, y1] in [
                    cols.map(|c| &c[..]),
                    shifted.each_ref().map(Misaligned::col),
                ] {
                    for d in KernelDispatch::all_available() {
                        let mut got = Vec::new();
                        rects_vs_rect(d, &q, x0, y0, x1, y1, &mut got);
                        let at = x0.as_ptr() as usize % 16;
                        assert_eq!(got, want, "{d:?} n={n} nan={with_nan} at={at}");
                    }
                }
            }
        }
    }
}

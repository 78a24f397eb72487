//! The runtime-dispatched wide kernel of Step 1's hot loop.
//!
//! One kernel, its AVX2 arm kept for a measured gain on its layer
//! (2-vCPU x86-64 VM, seed 1, pinned, medians of interleaved runs):
//! [`rects_vs_rect`] — one query rectangle against SoA MBR columns, the
//! R*-tree join's window restriction over per-node repacked entry
//! columns. Traced `core.step1_ms` over 6 rotated rounds, AVX2 / scalar:
//! `join_refine_heavy` 7.93 / 8.14 ms, `join_filter_heavy` 8.32 /
//! 9.09 ms (AVX2 below scalar in 11 of 12 rounds).
//!
//! `msj-partition`'s tile sweep is a plain scalar loop: the grid is the
//! oracle's independent Step 1 and runs in no measured phase of any
//! benchmark workload, so a wide arm there (an AVX2 one ran 2.1–2.2 × its
//! scalar loop) gains nothing measured. Selections test a stored MER with
//! one comparison per candidate in their filter loop: id-gathered masks
//! for it gained nothing under `version3()` and were removed.
//!
//! **Host policy:** AVX2 where `is_x86_feature_detected!("avx2")` says
//! so, the portable scalar loop (the semantic reference) everywhere
//! else — x86-64 without AVX2 as on aarch64. There is no middle tier: an
//! SSE2 arm read 8.12 ms on `join_refine_heavy` and 8.64 ms on
//! `join_filter_heavy` in the rounds above (≤ 1 % of a join's time), a
//! gain only on hosts no benchmark workload measures, so it was removed
//! with its `unsafe` function and its dispatch block.
//!
//! The AVX2 path (`core::arch::x86_64`) is outcome-identical to the
//! scalar reference for *arbitrary* inputs, including NaN lanes: every
//! wide comparison uses the **ordered** predicate `_CMP_LE_OQ`, which is
//! `false` when either operand is NaN — exactly like the scalar `<=` it
//! replaces — so a rectangle with a NaN bound meets nothing in either
//! path.
//!
//! Dispatch is chosen **once per join** ([`KernelDispatch::select`]) and
//! threaded through every call site; `force_scalar` (config) or the
//! `MSJ_FORCE_SCALAR` environment variable pin the reference path.

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64 as x86;

use crate::Rect;

/// Environment variable that pins the kernel to the scalar reference
/// path, overriding runtime CPU feature detection (any non-empty value
/// other than `0`; read when the process first selects a dispatch).
pub const FORCE_SCALAR_ENV: &str = "MSJ_FORCE_SCALAR";

/// The kernel implementation family, chosen once per join (or probe
/// session) and threaded through every hot loop under it.
///
/// The AVX2 dispatch exists only by detection: [`KernelDispatch::select`]
/// / [`KernelDispatch::auto`] and [`KernelDispatch::all_available`] are
/// its only sources, so holding one proves the CPU runs its
/// instructions. [`KernelDispatch::Scalar`] runs anywhere and is public;
/// the AVX2 path cannot be named outside this crate:
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

/// The path a [`KernelDispatch`] names. Private: the wide variant is
/// built only in this module, after AVX2 was detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
enum Path {
    /// [`KernelDispatch::Scalar`].
    Scalar,
    /// 4-wide `f64` lanes via `core::arch::x86_64` AVX2.
    Avx2,
}

impl KernelDispatch {
    /// Portable scalar loops — the semantic reference every wide path is
    /// checked against.
    #[allow(non_upper_case_globals)]
    pub const Scalar: KernelDispatch = KernelDispatch(Path::Scalar);

    /// The dispatch a join should run with: the scalar reference when
    /// `force_scalar` is set (configuration knob) or the
    /// [`FORCE_SCALAR_ENV`] environment variable is present and not `0`,
    /// otherwise AVX2 where detected and scalar elsewhere.
    pub fn select(force_scalar: bool) -> Self {
        if force_scalar || env_force_scalar() {
            KernelDispatch::Scalar
        } else {
            detect()
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
            Path::Avx2 => "avx2",
        }
    }

    /// Every dispatch this CPU can actually run, scalar first — the
    /// matrix agreement tests and the bench iterate over this.
    pub fn all_available() -> Vec<KernelDispatch> {
        let mut all = vec![KernelDispatch::Scalar, detect()];
        all.dedup();
        all
    }
}

/// AVX2 when this CPU has it, else the scalar reference (always on
/// non-x86-64 targets).
fn detect() -> KernelDispatch {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return KernelDispatch(Path::Avx2);
    }
    KernelDispatch::Scalar
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
        // SAFETY: a `Path::Avx2` dispatch is built only after AVX2 was
        // detected; the four columns are of equal length (asserted above).
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
        // Scalar, or scalar and AVX2: no middle tier.
        let labels: Vec<&str> = KernelDispatch::all_available()
            .iter()
            .map(KernelDispatch::label)
            .collect();
        assert!(
            labels == ["scalar"] || labels == ["scalar", "avx2"],
            "{labels:?}"
        );
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

    /// Whether `f` panics.
    fn panics(f: impl FnOnce() + std::panic::UnwindSafe) -> bool {
        std::panic::catch_unwind(f).is_err()
    }

    /// The callers' length obligations are checked in every build, on
    /// every dispatch, before a wide load: a column shorter than `xmin`
    /// panics.
    #[test]
    fn kernel_columns_are_checked_before_any_load() {
        let col = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<f64>>();
        for d in KernelDispatch::all_available() {
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
        }
    }

    /// The wide path must agree with the scalar reference at every lane
    /// boundary (`len % 4 ∈ {0,1,2,3}`, and smaller; `n = 0` is the
    /// zero-length column), with NaN lanes mixed in, on columns as
    /// allocated and on [`Misaligned`] copies of them.
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

//! Runtime-dispatched wide kernels for the engine's hot loops.
//!
//! Three kernels cover the inner loops of Step 1 and of the selections'
//! MER test:
//!
//! * [`sweep_scan`] — the forward plane-sweep inner run (`msj-partition`
//!   tile sweeps, `msj-sam` equal-level node sweeps): scan a window of
//!   x-sorted entries, stop at the first `xmin > bound`, emit the
//!   indices whose y-extent overlaps the query band;
//! * [`rects_vs_rect`] — one query rectangle against SoA MBR columns
//!   (R*-tree directory pruning and window restriction over per-node
//!   repacked entry columns);
//! * [`rects_contain_point`] / [`rects_intersect_query`] — id-gathered
//!   point-in-rect and window-vs-rect masks (resident point/window
//!   probes' MER test). Only a plan that stores a MER calls them, such
//!   as the paper's versions 2 and 3. The default stores none, so a
//!   default engine runs [`rects_vs_rect`] alone ([`sweep_scan`] serves
//!   the partitioned backend).
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
//! * NaN-sentinel rectangles (empty progressive MERs) never intersect
//!   and never contain a point in either path.
//!
//! Dispatch is chosen **once per join** ([`KernelDispatch::select`]) and
//! threaded through every call site; `force_scalar` (config) or the
//! `MSJ_FORCE_SCALAR` environment variable pin the reference path.

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64 as x86;

use crate::{Point, Rect};

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
    /// 4-wide `f64` lanes (with id gathers) via `core::arch::x86_64`
    /// AVX2.
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

// ---------------------------------------------------------------------
// Kernel 3: id-gathered point-in-rect / window-vs-rect masks.
// ---------------------------------------------------------------------

/// Panics unless every id indexes `rects` and, on the AVX2 arm, is below
/// 2^29 — the obligations of the gathered-id kernels' wide arms, which
/// load `rects[id]` unchecked. Checked in every build before any arm
/// runs, like the column lengths of [`sweep_scan`].
fn check_gathered_ids(d: KernelDispatch, rects: &[Rect], ids: &[u32]) {
    let Some(max) = ids.iter().copied().max() else {
        return;
    };
    assert!(
        (max as usize) < rects.len(),
        "gathered id {max} out of range of {} rects",
        rects.len()
    );
    assert!(
        d.0 != Path::Avx2 || max < 1 << 29,
        "gathered id {max} overflows an AVX2 gather lane"
    );
}

/// For every id pushes whether `rects[id].contains_point(p)` (closed
/// semantics). NaN-sentinel rectangles contain nothing in every path.
/// Panics if an id is `≥ rects.len()` (or `≥ 2^29` on AVX2).
pub fn rects_contain_point(
    d: KernelDispatch,
    rects: &[Rect],
    ids: &[u32],
    p: Point,
    out: &mut Vec<bool>,
) {
    check_gathered_ids(d, rects, ids);
    match d.0 {
        Path::Scalar => rects_contain_point_scalar(rects, ids, p, out),
        // SAFETY: a `Path::Sse2` dispatch is built only after SSE2 was
        // detected; every id is `< rects.len()` (checked above).
        #[cfg(target_arch = "x86_64")]
        Path::Sse2 => unsafe { rects_contain_point_sse2(rects, ids, p, out) },
        // SAFETY: a `Path::Avx2` dispatch is built only after AVX2 was
        // detected; every id is `< rects.len()` and `< 2^29` (checked
        // above).
        #[cfg(target_arch = "x86_64")]
        Path::Avx2 => unsafe { rects_contain_point_avx2(rects, ids, p, out) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => rects_contain_point_scalar(rects, ids, p, out),
    }
}

fn rects_contain_point_scalar(rects: &[Rect], ids: &[u32], p: Point, out: &mut Vec<bool>) {
    out.extend(ids.iter().map(|&id| rects[id as usize].contains_point(p)));
}

/// # Safety
///
/// The CPU must support AVX2; every id must be `< rects.len()` (the
/// gathers are unchecked) and `< 2^29`: `4 * id`, its `f64` index into
/// the `#[repr(C)]` `Rect` column, must fit the gather's `i32` lane.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn rects_contain_point_avx2(rects: &[Rect], ids: &[u32], p: Point, out: &mut Vec<bool>) {
    use x86::*;
    let base = rects.as_ptr() as *const f64;
    let px = _mm256_set1_pd(p.x);
    let py = _mm256_set1_pd(p.y);
    let mut k = 0usize;
    while k + 4 <= ids.len() {
        let idx = _mm_slli_epi32::<2>(_mm_set_epi32(
            ids[k + 3] as i32,
            ids[k + 2] as i32,
            ids[k + 1] as i32,
            ids[k] as i32,
        ));
        let x0 = _mm256_i32gather_pd::<8>(base, idx);
        let y0 = _mm256_i32gather_pd::<8>(base.add(1), idx);
        let x1 = _mm256_i32gather_pd::<8>(base.add(2), idx);
        let y1 = _mm256_i32gather_pd::<8>(base.add(3), idx);
        let c1 = _mm256_cmp_pd::<{ _CMP_LE_OQ }>(x0, px);
        let c2 = _mm256_cmp_pd::<{ _CMP_LE_OQ }>(px, x1);
        let c3 = _mm256_cmp_pd::<{ _CMP_LE_OQ }>(y0, py);
        let c4 = _mm256_cmp_pd::<{ _CMP_LE_OQ }>(py, y1);
        let bits =
            _mm256_movemask_pd(_mm256_and_pd(_mm256_and_pd(c1, c2), _mm256_and_pd(c3, c4))) as u32;
        for lane in 0..4 {
            out.push(bits & (1 << lane) != 0);
        }
        k += 4;
    }
    rects_contain_point_scalar(rects, &ids[k..], p, out);
}

/// # Safety
///
/// The CPU must support SSE2 and every id must be `< rects.len()`: the
/// two 16-byte loads per id read one `#[repr(C)]` `Rect` unchecked.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn rects_contain_point_sse2(rects: &[Rect], ids: &[u32], p: Point, out: &mut Vec<bool>) {
    use x86::*;
    let pv = _mm_set_pd(p.y, p.x);
    for &id in ids {
        let r = rects.as_ptr().add(id as usize) as *const f64;
        let lo = _mm_loadu_pd(r);
        let hi = _mm_loadu_pd(r.add(2));
        let m = _mm_and_pd(_mm_cmple_pd(lo, pv), _mm_cmple_pd(pv, hi));
        out.push(_mm_movemask_pd(m) == 0b11);
    }
}

/// For every id pushes whether `rects[id].intersects(q)` (closed
/// semantics) — the window-probe companion of
/// [`rects_contain_point`], with the same id checks.
pub fn rects_intersect_query(
    d: KernelDispatch,
    rects: &[Rect],
    ids: &[u32],
    q: &Rect,
    out: &mut Vec<bool>,
) {
    check_gathered_ids(d, rects, ids);
    match d.0 {
        Path::Scalar => rects_intersect_query_scalar(rects, ids, q, out),
        // SAFETY: a `Path::Sse2` dispatch is built only after SSE2 was
        // detected; every id is `< rects.len()` (checked above).
        #[cfg(target_arch = "x86_64")]
        Path::Sse2 => unsafe { rects_intersect_query_sse2(rects, ids, q, out) },
        // SAFETY: a `Path::Avx2` dispatch is built only after AVX2 was
        // detected; every id is `< rects.len()` and `< 2^29` (checked
        // above).
        #[cfg(target_arch = "x86_64")]
        Path::Avx2 => unsafe { rects_intersect_query_avx2(rects, ids, q, out) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => rects_intersect_query_scalar(rects, ids, q, out),
    }
}

fn rects_intersect_query_scalar(rects: &[Rect], ids: &[u32], q: &Rect, out: &mut Vec<bool>) {
    out.extend(ids.iter().map(|&id| rects[id as usize].intersects(q)));
}

/// # Safety
///
/// The CPU must support AVX2; every id must be `< rects.len()` (the
/// gathers are unchecked) and `< 2^29`: `4 * id`, its `f64` index into
/// the `#[repr(C)]` `Rect` column, must fit the gather's `i32` lane.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn rects_intersect_query_avx2(rects: &[Rect], ids: &[u32], q: &Rect, out: &mut Vec<bool>) {
    use x86::*;
    let base = rects.as_ptr() as *const f64;
    let qx0 = _mm256_set1_pd(q.xmin());
    let qy0 = _mm256_set1_pd(q.ymin());
    let qx1 = _mm256_set1_pd(q.xmax());
    let qy1 = _mm256_set1_pd(q.ymax());
    let mut k = 0usize;
    while k + 4 <= ids.len() {
        let idx = _mm_slli_epi32::<2>(_mm_set_epi32(
            ids[k + 3] as i32,
            ids[k + 2] as i32,
            ids[k + 1] as i32,
            ids[k] as i32,
        ));
        let x0 = _mm256_i32gather_pd::<8>(base, idx);
        let y0 = _mm256_i32gather_pd::<8>(base.add(1), idx);
        let x1 = _mm256_i32gather_pd::<8>(base.add(2), idx);
        let y1 = _mm256_i32gather_pd::<8>(base.add(3), idx);
        let c1 = _mm256_cmp_pd::<{ _CMP_LE_OQ }>(x0, qx1);
        let c2 = _mm256_cmp_pd::<{ _CMP_LE_OQ }>(qx0, x1);
        let c3 = _mm256_cmp_pd::<{ _CMP_LE_OQ }>(y0, qy1);
        let c4 = _mm256_cmp_pd::<{ _CMP_LE_OQ }>(qy0, y1);
        let bits =
            _mm256_movemask_pd(_mm256_and_pd(_mm256_and_pd(c1, c2), _mm256_and_pd(c3, c4))) as u32;
        for lane in 0..4 {
            out.push(bits & (1 << lane) != 0);
        }
        k += 4;
    }
    rects_intersect_query_scalar(rects, &ids[k..], q, out);
}

/// # Safety
///
/// The CPU must support SSE2 and every id must be `< rects.len()`: the
/// two 16-byte loads per id read one `#[repr(C)]` `Rect` unchecked.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn rects_intersect_query_sse2(rects: &[Rect], ids: &[u32], q: &Rect, out: &mut Vec<bool>) {
    use x86::*;
    let q_lo = _mm_set_pd(q.ymin(), q.xmin());
    let q_hi = _mm_set_pd(q.ymax(), q.xmax());
    for &id in ids {
        let r = rects.as_ptr().add(id as usize) as *const f64;
        let lo = _mm_loadu_pd(r);
        let hi = _mm_loadu_pd(r.add(2));
        let m = _mm_and_pd(_mm_cmple_pd(lo, q_hi), _mm_cmple_pd(q_lo, hi));
        out.push(_mm_movemask_pd(m) == 0b11);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nan_rect() -> Rect {
        Rect::from_bounds(f64::NAN, f64::NAN, f64::NAN, f64::NAN)
    }

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

    /// Every kernel must agree with the scalar reference at every lane
    /// boundary (`len % 4 ∈ {0,1,2,3}`, and smaller), with NaN lanes
    /// mixed in.
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
                    for from in [0usize, 1, n / 2, n.saturating_sub(1)] {
                        for bound in [-5.0, 0.0, 5.0, f64::NAN] {
                            let mut want = Vec::new();
                            let t0 = sweep_scan_scalar(
                                bound, -3.0, 4.0, &xmin, &ymin, &ymax, from, &mut want,
                            );
                            for d in KernelDispatch::all_available() {
                                let mut got = Vec::new();
                                let t = sweep_scan(
                                    d, bound, -3.0, 4.0, &xmin, &ymin, &ymax, from, &mut got,
                                );
                                assert_eq!(got, want, "{d:?} n={n} from={from} bound={bound}");
                                assert_eq!(t, t0, "{d:?} pair-test count diverged");
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
                for d in KernelDispatch::all_available() {
                    let mut got = Vec::new();
                    rects_vs_rect(d, &q, &xmin, &ymin, &xmax, &ymax, &mut got);
                    assert_eq!(got, want, "{d:?} n={n} nan={with_nan}");
                }
            }
        }
    }

    /// The gathered-id kernels check their ids in every build, on every
    /// dispatch, before a wide arm loads: an id equal to `rects.len()`
    /// panics, and short id lists — none, one, three (one short of an
    /// AVX2 lane group), five (one past it) — agree with the scalar arm.
    #[test]
    fn gathered_ids_are_checked_before_any_load() {
        let rects: Vec<Rect> = (0..6)
            .map(|i| Rect::from_bounds(i as f64, 0.0, i as f64 + 1.5, 1.0))
            .collect();
        let (p, q) = (Point::new(2.2, 0.5), Rect::from_bounds(1.2, 0.2, 3.1, 0.4));
        let past = rects.len() as u32;
        for d in KernelDispatch::all_available() {
            for ids in [vec![past], vec![0, 1, 2, past], vec![past, 0, 0, 0, 0]] {
                assert!(
                    panics(|| rects_contain_point(d, &rects, &ids, p, &mut Vec::new())),
                    "{d:?} point kernel gathered {ids:?}"
                );
                assert!(
                    panics(|| rects_intersect_query(d, &rects, &ids, &q, &mut Vec::new())),
                    "{d:?} window kernel gathered {ids:?}"
                );
            }
            for n in [0usize, 1, 3, 5] {
                let ids: Vec<u32> = (0..n as u32).map(|i| (3 * i + 1) % past).collect();
                let (mut want, mut got) = (Vec::new(), Vec::new());
                rects_contain_point_scalar(&rects, &ids, p, &mut want);
                rects_contain_point(d, &rects, &ids, p, &mut got);
                assert_eq!(got, want, "{d:?} point, {n} ids");
                let (mut want, mut got) = (Vec::new(), Vec::new());
                rects_intersect_query_scalar(&rects, &ids, &q, &mut want);
                rects_intersect_query(d, &rects, &ids, &q, &mut got);
                assert_eq!(got, want, "{d:?} window, {n} ids");
            }
        }
    }

    /// The two selection kernels agree with scalar on every dispatch at
    /// the edges of their contracts: closed contact (a point on an edge
    /// or corner, a window sharing an edge or a corner, zero-width and
    /// zero-area windows), gathered ids up to `rects.len() − 1`, repeated
    /// ids, a NaN sentinel, and every id-list length from 0 to 17 (four
    /// AVX2 lanes plus every remainder).
    #[test]
    fn point_and_window_masks_match_scalar() {
        let mut rects: Vec<Rect> = (0..8)
            .map(|i| Rect::from_bounds(i as f64, 0.0, i as f64 + 1.0, 1.0))
            .collect();
        rects[5] = nan_rect();
        let last = rects.len() as u32 - 1;
        let past = 1.0 + f64::EPSILON;
        // Each probe with its answer for rects[0] = [0, 1]².
        let points = [
            (Point::new(0.5, 0.0), true),
            (Point::new(0.0, 0.0), true),
            (Point::new(1.0, 1.0), true),
            (Point::new(past, 0.5), false),
            (Point::new(0.5, -f64::MIN_POSITIVE), false),
        ];
        let windows = [
            (Rect::from_bounds(1.0, 0.0, 2.0, 1.0), true),
            (Rect::from_bounds(1.0, 1.0, 2.0, 2.0), true),
            (Rect::from_bounds(1.0, 0.2, 1.0, 0.4), true),
            (Rect::from_bounds(0.0, 0.0, 0.0, 0.0), true),
            (Rect::from_bounds(past, 0.0, 2.0, 1.0), false),
            (Rect::from_bounds(past, 0.2, past, 0.4), false),
        ];
        for &(p, want) in &points {
            assert_eq!(rects[0].contains_point(p), want, "closed point {p:?}");
        }
        for (q, want) in &windows {
            assert_eq!(rects[0].intersects(q), *want, "closed window {q:?}");
        }
        let pattern = [0, last, 0, 5, last, 3, last, 0];
        for n in 0..=17usize {
            let ids: Vec<u32> = (0..n).map(|i| pattern[i % pattern.len()]).collect();
            for &(p, want) in &points {
                let mut scalar = Vec::new();
                rects_contain_point_scalar(&rects, &ids, p, &mut scalar);
                for (&id, &got) in ids.iter().zip(&scalar) {
                    assert_eq!(got, rects[id as usize].contains_point(p));
                    assert!(id != 0 || got == want, "point {p:?} vs rect 0");
                    assert!(id != 5 || !got, "NaN sentinel accepted");
                }
                for d in KernelDispatch::all_available() {
                    let mut got = Vec::new();
                    rects_contain_point(d, &rects, &ids, p, &mut got);
                    assert_eq!(got, scalar, "{d:?} point {p:?} n={n}");
                }
            }
            for (q, want) in &windows {
                let mut scalar = Vec::new();
                rects_intersect_query_scalar(&rects, &ids, q, &mut scalar);
                for (&id, &got) in ids.iter().zip(&scalar) {
                    assert_eq!(got, rects[id as usize].intersects(q));
                    assert!(id != 0 || got == *want, "window {q:?} vs rect 0");
                    assert!(id != 5 || !got, "NaN sentinel accepted");
                }
                for d in KernelDispatch::all_available() {
                    let mut got = Vec::new();
                    rects_intersect_query(d, &rects, &ids, q, &mut got);
                    assert_eq!(got, scalar, "{d:?} window {q:?} n={n}");
                }
            }
        }
    }
}

//! The `kernels` experiment: the engine's vectorized Step-1 kernel
//! measured in isolation, per dispatch path.
//!
//! One microbench mirrors the loop the join pipeline runs per dispatch
//! path (the same inputs every path, straight out of the skewed
//! cartographic workload):
//!
//! * **rects_vs_rect** — the window restriction of the R*-tree join
//!   ([`msj_geom::kernels::rects_vs_rect`]): relation A's MBRs packed
//!   into leaf-sized SoA runs in STR order, each run scanned against the
//!   intersection of its bounding rectangle with every B MBR that meets
//!   it, as `msj-sam`'s traversal restricts a node's entries to the
//!   window of a node pair.
//!
//! (The partitioned backend's tile sweep is a plain scalar loop,
//! Step 2a, [`msj_approx::raster_decide`], is one search-based function
//! on every path, and Step 2's MER test is one rectangle comparison per
//! candidate, so none of them has a row here.)
//!
//! Every cell reports items/sec and ns/item; the FNV digest of the
//! kernel's full output is asserted equal across dispatch paths — the
//! scalar-agreement gate, measured rather than assumed.
//!
//! A second table, **checksum**, prices the two 64-bit hashes of
//! [`msj_geom::bytes`] over one 8 MiB buffer in GB/s: the
//! byte-serial FNV-1a digest and the store's word-parallel integrity
//! [`checksum`] that every cold open runs over every section.

use super::ExpConfig;
use crate::report::{f, section, Table};
use crate::timing::timed;
use msj_geom::kernels::{self, KernelDispatch};
use msj_geom::{checksum, fnv1a64, Rect, Relation};

/// Bytes the checksum rows hash: more than a typical last-level cache,
/// and about one and a half `ingest_reopen` dataset segments.
const CHECKSUM_BYTES: usize = 8 << 20;

/// Entries per packed run: the engine's leaf fan-out (64 per 4 KB page).
const FANOUT: usize = 64;

/// One measured cell: a kernel on a dispatch path.
struct KernelCell {
    kernel: &'static str,
    path: &'static str,
    /// Items the kernel consumed per run (rectangle tests).
    items: u64,
    ns_per_item: f64,
    items_per_sec: f64,
    /// Scalar ns/item over this path's ns/item (1.0 for scalar).
    speedup_vs_scalar: f64,
    /// FNV-1a over the kernel's full output — equal across paths by
    /// assertion.
    digest: u64,
}

/// One leaf-sized run of MBRs as SoA columns, with the windows it is
/// restricted to.
struct Run {
    xmin: Vec<f64>,
    ymin: Vec<f64>,
    xmax: Vec<f64>,
    ymax: Vec<f64>,
    windows: Vec<Rect>,
}

/// Packs `a`'s MBRs into [`FANOUT`]-entry runs in STR order (x slabs,
/// then y within a slab) and gives each run the intersection of its
/// bounding rectangle with every MBR of `b` that meets it.
fn packed_runs(a: &Relation, b: &Relation) -> Vec<Run> {
    let by = |key: fn(&Rect) -> f64| {
        move |p: &Rect, q: &Rect| key(p).partial_cmp(&key(q)).expect("finite bounds")
    };
    let mut rects: Vec<Rect> = a.iter().map(|o| o.mbr()).collect();
    rects.sort_by(by(Rect::xmin));
    let runs = rects.len().div_ceil(FANOUT);
    let slab = FANOUT * (runs as f64).sqrt().ceil().max(1.0) as usize;
    let others: Vec<Rect> = b.iter().map(|o| o.mbr()).collect();
    let mut out = Vec::with_capacity(runs);
    for slab in rects.chunks_mut(slab) {
        slab.sort_by(by(Rect::ymin));
        for run in slab.chunks(FANOUT) {
            let bound = Rect::bounding_rects(run.iter().copied()).expect("non-empty run");
            out.push(Run {
                xmin: run.iter().map(Rect::xmin).collect(),
                ymin: run.iter().map(Rect::ymin).collect(),
                xmax: run.iter().map(Rect::xmax).collect(),
                ymax: run.iter().map(Rect::ymax).collect(),
                windows: others
                    .iter()
                    .filter_map(|r| bound.intersection(r))
                    .collect(),
            });
        }
    }
    out
}

/// Restricts every run to each of its windows. Returns (rectangle tests,
/// the indices every restriction kept, in order).
fn run_restrictions(d: KernelDispatch, runs: &[Run]) -> (u64, Vec<u32>) {
    let mut tests = 0u64;
    let mut kept = Vec::new();
    let mut hits: Vec<u32> = Vec::new();
    for run in runs {
        for window in &run.windows {
            hits.clear();
            kernels::rects_vs_rect(
                d, window, &run.xmin, &run.ymin, &run.xmax, &run.ymax, &mut hits,
            );
            tests += run.xmin.len() as u64;
            kept.extend_from_slice(&hits);
        }
    }
    (tests, kept)
}

/// Measures the restriction kernel on every available dispatch path
/// over the skewed cartographic workload; asserts cross-path digest
/// agreement.
fn measure_kernels(cfg: &ExpConfig) -> Vec<KernelCell> {
    let n = cfg.large_count() / 2;
    let a = msj_datagen::skewed_carto(n, 24.0, cfg.seed);
    let b = msj_datagen::skewed_carto(n, 24.0, cfg.seed + 1);
    let runs = packed_runs(&a, &b);

    let mut cells: Vec<KernelCell> = Vec::new();
    for d in KernelDispatch::all_available() {
        let _ = run_restrictions(d, &runs); // warm-up
        let ((items, kept), secs) = timed(|| run_restrictions(d, &runs));
        let bytes: Vec<u8> = kept.iter().flat_map(|k| k.to_le_bytes()).collect();
        let digest = fnv1a64(&bytes);
        let ns = secs * 1e9 / items.max(1) as f64;
        let scalar = cells.first();
        if let Some(expect) = scalar {
            assert_eq!(
                digest,
                expect.digest,
                "{}: output digest diverged",
                d.label()
            );
        }
        cells.push(KernelCell {
            kernel: "rects_vs_rect",
            path: d.label(),
            items,
            ns_per_item: ns,
            items_per_sec: items as f64 / secs.max(1e-12),
            speedup_vs_scalar: scalar.map_or(1.0, |s| s.ns_per_item / ns.max(1e-12)),
            digest,
        });
    }
    cells
}

/// The `kernels` experiment (see the module docs).
pub fn kernels(cfg: &ExpConfig) -> String {
    let mut out = section(
        "kernels",
        "the vectorized Step-1 kernel: per-dispatch microbenchmark",
    );
    out.push_str(&format!(
        "auto-detected widest path: {}; the kernel's output digest is asserted\n\
         equal across paths (the scalar-agreement gate); items = rectangle tests\n\n",
        KernelDispatch::auto().label()
    ));
    let cells = measure_kernels(cfg);
    let mut table = Table::new([
        "kernel",
        "path",
        "items",
        "ns/item",
        "M items/s",
        "speedup",
        "digest",
    ]);
    for c in &cells {
        table.row([
            c.kernel.into(),
            c.path.into(),
            format!("{}", c.items),
            f(c.ns_per_item, 2),
            f(c.items_per_sec / 1e6, 2),
            format!("{:.2}x", c.speedup_vs_scalar),
            format!("{:#018x}", c.digest),
        ]);
    }
    out.push_str(&table.render());
    out.push('\n');
    out.push_str("all dispatch paths produced identical kernel outputs\n\n");
    out.push_str(&checksum_table(cfg.seed));
    out
}

/// The checksum rows: FNV-1a and the store checksum over the same
/// seeded [`CHECKSUM_BYTES`] buffer, best of three, with both digests.
fn checksum_table(seed: u64) -> String {
    let mut state = seed;
    let buf: Vec<u8> = (0..CHECKSUM_BYTES / 8)
        .flat_map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state.to_le_bytes()
        })
        .collect();
    type Hash = fn(&[u8]) -> u64;
    let mut table = Table::new(["kernel", "hash", "MiB", "GB/s", "digest"]);
    for (name, hash) in [("fnv1a64", fnv1a64 as Hash), ("store", checksum)] {
        let (digest, secs) = timed(|| hash(std::hint::black_box(&buf)));
        table.row([
            "checksum".into(),
            name.into(),
            format!("{}", CHECKSUM_BYTES >> 20),
            f(CHECKSUM_BYTES as f64 / secs.max(1e-12) / 1e9, 2),
            format!("{digest:#018x}"),
        ]);
    }
    format!(
        "checksum: the FNV-1a digest vs the store's word-parallel integrity checksum\n\n{}",
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::Scale;

    #[test]
    fn kernels_experiment_measures_every_available_path() {
        let cfg = ExpConfig {
            seed: 9,
            scale: Scale::Quick,
        };
        let report = kernels(&cfg);
        assert!(report.contains("rects_vs_rect"));
        assert!(report.contains("scalar"));
        assert!(report.contains("identical kernel outputs"));
        assert!(report.contains("checksum") && report.contains("fnv1a64"));
    }

    #[test]
    fn restrictions_match_the_rectangle_test() {
        let a = msj_datagen::small_carto(300, 20.0, 41);
        let b = msj_datagen::small_carto(300, 20.0, 42);
        let runs = packed_runs(&a, &b);
        assert_eq!(runs.iter().map(|r| r.xmin.len()).sum::<usize>(), a.len());
        let mut expect = Vec::new();
        for run in &runs {
            for window in &run.windows {
                for k in 0..run.xmin.len() {
                    let r = Rect::from_bounds(run.xmin[k], run.ymin[k], run.xmax[k], run.ymax[k]);
                    if r.intersects(window) {
                        expect.push(k as u32);
                    }
                }
            }
        }
        assert!(!expect.is_empty());
        for d in KernelDispatch::all_available() {
            let (tests, kept) = run_restrictions(d, &runs);
            assert_eq!(kept, expect, "{}", d.label());
            assert!(tests >= kept.len() as u64);
        }
    }
}

//! The `kernels` experiment: the vectorized hot-path kernels measured in
//! isolation, per dispatch path.
//!
//! One microbench mirrors the batched loop the join pipeline runs per
//! dispatch path (the same inputs every path, straight out of the skewed
//! cartographic workload):
//!
//! * **sweep** — the forward plane-sweep MBR kernel
//!   ([`msj_geom::kernels::sweep_scan`]) over the xmin-sorted SoA
//!   columns of both relations, exactly the Step-1 inner loop of the
//!   partitioned backend's tile sweeps. (The R*-traversal's node pairs
//!   leave runs a few entries long after restriction; `msj-sam` sweeps
//!   them inline.)
//!
//! (Step 2a, [`msj_approx::raster_decide`], is one search-based function
//! on every path, and Step 2's MER test is one rectangle comparison per
//! candidate, so neither has a row here.)
//!
//! Every cell reports items/sec and ns/item; the FNV digest of each
//! kernel's full output is asserted equal across dispatch paths —
//! the scalar-agreement gate, measured rather than assumed.
//!
//! A second table, **checksum**, prices the two 64-bit hashes of
//! [`msj_geom::bytes`] over one 8 MiB buffer in GB/s: the
//! byte-serial FNV-1a digest and the store's word-parallel integrity
//! [`checksum`] that every cold open runs over every section.

use super::ExpConfig;
use crate::report::{f, section, Table};
use crate::timing::timed;
use msj_geom::kernels::{self, KernelDispatch};
use msj_geom::{checksum, fnv1a64, ObjectId, Rect, Relation};

/// Bytes the checksum rows hash: more than a typical last-level cache,
/// and about one and a half `ingest_reopen` dataset segments.
const CHECKSUM_BYTES: usize = 8 << 20;

/// One measured cell: a kernel on a dispatch path.
struct KernelCell {
    kernel: &'static str,
    path: &'static str,
    /// Items the kernel consumed per run (pair tests).
    items: u64,
    ns_per_item: f64,
    items_per_sec: f64,
    /// Scalar ns/item over this path's ns/item (1.0 for scalar).
    speedup_vs_scalar: f64,
    /// FNV-1a over the kernel's full output — equal across paths by
    /// assertion.
    digest: u64,
}

/// xmin-sorted SoA columns of one relation's MBRs (the layout the
/// partitioned sweep repacks per tile).
struct SweepSide {
    ids: Vec<ObjectId>,
    xmin: Vec<f64>,
    ymin: Vec<f64>,
    xmax: Vec<f64>,
    ymax: Vec<f64>,
}

impl SweepSide {
    fn build(rel: &Relation) -> Self {
        let mut rects: Vec<(Rect, ObjectId)> = rel.iter().map(|o| (o.mbr(), o.id)).collect();
        rects.sort_by(|p, q| p.0.xmin().partial_cmp(&q.0.xmin()).expect("finite xmin"));
        let mut side = SweepSide {
            ids: Vec::with_capacity(rects.len()),
            xmin: Vec::with_capacity(rects.len()),
            ymin: Vec::with_capacity(rects.len()),
            xmax: Vec::with_capacity(rects.len()),
            ymax: Vec::with_capacity(rects.len()),
        };
        for (r, id) in rects {
            side.ids.push(id);
            side.xmin.push(r.xmin());
            side.ymin.push(r.ymin());
            side.xmax.push(r.xmax());
            side.ymax.push(r.ymax());
        }
        side
    }
}

/// One full forward plane sweep over both sorted sides — the tile_sweep
/// merge loop with the whole workload as a single tile. Returns
/// (pair tests, hit pairs).
fn run_sweep(d: KernelDispatch, a: &SweepSide, b: &SweepSide) -> (u64, Vec<(ObjectId, ObjectId)>) {
    let mut tests = 0u64;
    let mut pairs = Vec::new();
    let mut hits: Vec<u32> = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.ids.len() && j < b.ids.len() {
        if a.xmin[i] <= b.xmin[j] {
            hits.clear();
            tests += kernels::sweep_scan(
                d, a.xmax[i], a.ymin[i], a.ymax[i], &b.xmin, &b.ymin, &b.ymax, j, &mut hits,
            );
            for &k in &hits {
                pairs.push((a.ids[i], b.ids[k as usize]));
            }
            i += 1;
        } else {
            hits.clear();
            tests += kernels::sweep_scan(
                d, b.xmax[j], b.ymin[j], b.ymax[j], &a.xmin, &a.ymin, &a.ymax, i, &mut hits,
            );
            for &k in &hits {
                pairs.push((a.ids[k as usize], b.ids[j]));
            }
            j += 1;
        }
    }
    (tests, pairs)
}

/// Measures the sweep kernel on every available dispatch path over the
/// skewed cartographic workload; asserts cross-path digest agreement.
fn measure_kernels(cfg: &ExpConfig) -> Vec<KernelCell> {
    let n = cfg.large_count() / 2;
    let a = msj_datagen::skewed_carto(n, 24.0, cfg.seed);
    let b = msj_datagen::skewed_carto(n, 24.0, cfg.seed + 1);
    let side_a = SweepSide::build(&a);
    let side_b = SweepSide::build(&b);

    let mut cells: Vec<KernelCell> = Vec::new();
    let push = |kernel: &'static str,
                path: &'static str,
                items: u64,
                secs: f64,
                digest: u64,
                cells: &mut Vec<KernelCell>| {
        let scalar_ns = cells
            .iter()
            .find(|c| c.kernel == kernel && c.path == "scalar")
            .map(|c| c.ns_per_item);
        let ns = secs * 1e9 / items.max(1) as f64;
        if let Some(expect) = cells.iter().find(|c| c.kernel == kernel).map(|c| c.digest) {
            assert_eq!(digest, expect, "{kernel}/{path}: output digest diverged");
        }
        cells.push(KernelCell {
            kernel,
            path,
            items,
            ns_per_item: ns,
            items_per_sec: items as f64 / secs.max(1e-12),
            speedup_vs_scalar: scalar_ns.map_or(1.0, |s| s / ns.max(1e-12)),
            digest,
        });
    };

    for d in KernelDispatch::all_available() {
        let path = d.label();

        // The plane-sweep MBR join loop.
        let _ = run_sweep(d, &side_a, &side_b); // warm-up
        let ((tests, pairs), secs) = timed(|| run_sweep(d, &side_a, &side_b));
        let bytes: Vec<u8> = pairs
            .iter()
            .flat_map(|&(x, y)| x.to_le_bytes().into_iter().chain(y.to_le_bytes()))
            .collect();
        push("sweep", path, tests, secs, fnv1a64(&bytes), &mut cells);
    }
    cells
}

/// The `kernels` experiment (see the module docs).
pub fn kernels(cfg: &ExpConfig) -> String {
    let mut out = section(
        "kernels",
        "vectorized hot-path kernels: per-dispatch microbenchmarks",
    );
    out.push_str(&format!(
        "auto-detected widest path: {}; every kernel's output digest is asserted\n\
         equal across paths (the scalar-agreement gate); items = pair tests\n\n",
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
        assert!(report.contains("sweep"));
        assert!(report.contains("scalar"));
        assert!(report.contains("identical kernel outputs"));
        assert!(report.contains("checksum") && report.contains("fnv1a64"));
    }

    #[test]
    fn sweep_matches_quadratic_reference() {
        let a = msj_datagen::small_carto(30, 20.0, 41);
        let b = msj_datagen::small_carto(30, 20.0, 42);
        let (sa, sb) = (SweepSide::build(&a), SweepSide::build(&b));
        let mut expect: Vec<(ObjectId, ObjectId)> = Vec::new();
        for oa in a.iter() {
            for ob in b.iter() {
                if oa.mbr().intersects(&ob.mbr()) {
                    expect.push((oa.id, ob.id));
                }
            }
        }
        expect.sort_unstable();
        for d in KernelDispatch::all_available() {
            let (tests, mut pairs) = run_sweep(d, &sa, &sb);
            pairs.sort_unstable();
            assert_eq!(pairs, expect, "{}", d.label());
            assert!(tests >= pairs.len() as u64);
        }
    }
}

//! The container's own behaviour — opaque sections survive persist + load
//! byte for byte, corruption is contained per section instead of failing the
//! file, a dataset write retires the pair files derived from it — and the
//! golden bytes that pin every artifact image to the format the store
//! carries: the dataset sections since version 2, the raster pair
//! sections since version 3. Damaged manifests and truncated files are
//! `container_hostile.rs`.

use msj_approx::{auto_grid_bits, RasterGrid, RasterStore};
use msj_exact::TrStarStore;
use msj_geom::{fnv1a64, Relation};
use msj_sam::{PageLayout, RStarTree};
use msj_store::{Section, SectionError, Store};
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("msj_store_test_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Payloads of awkward sizes: one page exactly, empty, one byte, a page
/// and a bit. The container does not know which sections a dataset file
/// carries, so a raster section stands in for a fourth.
fn opaque_sections() -> Vec<(Section, Vec<u8>)> {
    let bytes = |n: usize, salt: u8| (0..n).map(|i| (i as u8).wrapping_mul(31) ^ salt).collect();
    vec![
        (Section::Relation, bytes(4096, 1)),
        (Section::Tree, bytes(0, 2)),
        (Section::RasterA, bytes(1, 3)),
        (Section::TrStar, bytes(4097, 4)),
    ]
}

#[test]
fn opaque_sections_round_trip() {
    let dir = tmp_dir("roundtrip");
    let store = Store::open(&dir).unwrap();
    let sections = opaque_sections();

    let written = store.write_dataset(0, 0xC0FFEE, &sections).unwrap();
    // Manifest page, then 1 + 0 + 1 + 2 payload pages.
    assert_eq!(written, 4096 * 5, "page-granular");
    assert_eq!(store.dataset_ids().unwrap(), vec![0]);

    let load = store.read_dataset(0, None).unwrap();
    assert_eq!(load.bytes, written);
    assert_eq!(load.config_tag, 0xC0FFEE);
    assert_eq!(load.bytes, written);
    for (section, payload) in &sections {
        assert_eq!(load.section(*section), Some(Ok(payload.as_slice())));
    }
    assert_eq!(load.section(Section::RasterB), None, "never written");

    assert!(store.read_pair(0, 1, None).unwrap().is_none());
    let pair = [
        (Section::RasterA, vec![7u8; 10]),
        (Section::RasterB, vec![9u8; 5000]),
    ];
    store.write_pair(0, 1, 7, &pair).unwrap();
    let load = store.read_pair(0, 1, None).unwrap().unwrap();
    assert_eq!(load.config_tag, 7);
    assert_eq!(load.section(Section::RasterA), Some(Ok(&pair[0].1[..])));
    assert_eq!(load.section(Section::RasterB), Some(Ok(&pair[1].1[..])));

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn tampered_section_fails_alone() {
    let dir = tmp_dir("tamper");
    let store = Store::open(&dir).unwrap();
    let sections = opaque_sections();
    store.write_dataset(3, 1, &sections).unwrap();

    let mut hook = |section: Section, bytes: &mut [u8]| {
        if section == Section::TrStar && !bytes.is_empty() {
            bytes[bytes.len() / 2] ^= 0x40;
        }
    };
    let load = store.read_dataset(3, Some(&mut hook)).unwrap();
    assert_eq!(
        load.section(Section::TrStar),
        Some(Err(SectionError::Checksum))
    );
    // Every other section still verifies.
    for (section, payload) in &sections[..3] {
        assert_eq!(load.section(*section), Some(Ok(payload.as_slice())));
    }

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn writing_a_dataset_retires_the_pairs_that_name_it() {
    let dir = tmp_dir("retire");
    let store = Store::open(&dir).unwrap();
    let pair = [(Section::RasterA, vec![1u8]), (Section::RasterB, vec![2u8])];
    for (a, b) in [(0, 1), (1, 0), (1, 1), (1, 2), (0, 2), (11, 2)] {
        store.write_pair(a, b, 0, &pair).unwrap();
    }
    store.write_dataset(1, 0, &opaque_sections()).unwrap();
    let survives = |a, b| store.read_pair(a, b, None).unwrap().is_some();
    assert!(!survives(0, 1) && !survives(1, 0) && !survives(1, 1) && !survives(1, 2));
    assert!(survives(0, 2), "names neither side");
    assert!(survives(11, 2), "id 11 is not id 1");

    std::fs::remove_dir_all(&dir).unwrap();
}

/// FNV-1a of every section payload the engine writes for
/// `small_carto(48, 24.0, 7)` × `small_carto(48, 24.0, 8)` under
/// `JoinConfig::version3()` (the default until PR 22). The dataset sections were read out of
/// `ds_0.msj`, `ds_1.msj` (section table order) at the last commit
/// (99ecc75) that still encoded through per-artifact export structs and a
/// payload codec inside this crate. The images below are built the way
/// that configuration builds them (4 KB pages with the 5-corner + MER
/// leaf bytes, STR loading, TR* with M = 3, the auto-sized shared grid).
/// The two `TrStar` rows are the packed arena's; the R*-inserted arena
/// it replaced was 74312 / 79968 bytes. The 5-corner and MER columns
/// that segment also carried are no longer stored. The two `Tree` rows
/// are the sweep-order image's: eight counted columns, each node's
/// entries stored once sorted by `xmin` (the builder-order image was
/// 2000 bytes, `0x6671a81e1110c3e4` / `0xe4e0db782eb0188c`).
const GOLDEN_DATASETS: [[(Section, usize, u64); 3]; 2] = [
    [
        (Section::Relation, 15720, 0xe141d5463cabec31),
        (Section::Tree, 2024, 0x7a3e906cc127101c),
        (Section::TrStar, 71712, 0xd6a24c0a5da1f8e2),
    ],
    [
        (Section::Relation, 16952, 0x2095bb9243a6f68d),
        (Section::Tree, 2024, 0x0a8501a600f84b48),
        (Section::TrStar, 77968, 0xd7a28f8e8cdf5ac3),
    ],
];
/// `pair_0_1.msj` of the same pair at format version 3: an A column and an
/// F column per side (5408 and 5208 bytes as one class-tagged list in v2).
const GOLDEN_PAIR: [(Section, usize, u64); 2] = [
    (Section::RasterA, 4356, 0xfbc217c0a6d32d1a),
    (Section::RasterB, 4188, 0x43a97613a6349392),
];

fn dataset_images(rel: &Relation) -> [Vec<u8>; 3] {
    let layout = PageLayout::with_extra_bytes(4096, 40 + 16);
    [
        rel.to_bytes(),
        RStarTree::bulk_load(layout, rel.iter().map(|o| (o.mbr(), o.id))).to_bytes(),
        TrStarStore::build(rel, 3).to_bytes(),
    ]
}

#[test]
fn images_match_the_bytes_the_export_codec_wrote() {
    let rels = [
        msj_datagen::small_carto(48, 24.0, 7),
        msj_datagen::small_carto(48, 24.0, 8),
    ];
    for (rel, golden) in rels.iter().zip(GOLDEN_DATASETS) {
        for (image, (section, len, sum)) in dataset_images(rel).iter().zip(golden) {
            assert_eq!(image.len(), len, "{} length", section.name());
            assert_eq!(fnv1a64(image), sum, "{} bytes", section.name());
        }
    }
    let bits = auto_grid_bits(&rels[0], &rels[1]);
    let grid = RasterGrid::covering(&rels[0], &rels[1], bits).unwrap();
    for (rel, (section, len, sum)) in rels.iter().zip(GOLDEN_PAIR) {
        let image = RasterStore::build(&grid, rel).to_bytes();
        assert_eq!(image.len(), len, "{} length", section.name());
        assert_eq!(fnv1a64(&image), sum, "{} bytes", section.name());
    }
}

/// The filter workload's parcels (near-convex, 4–10 vertices) and
/// regions (large blobs, 8–100 vertices) at a quarter of its counts: both
/// sides shrink alike, so the auto grid (10 bits here, 11 there) keeps the
/// region blocks at the workload's scale, ≈ 6,700 cells each against
/// ≈ 7,300.
fn filter_pair(parcels: usize, regions: usize, seed: u64) -> [Relation; 2] {
    use msj_datagen::{generate_relation, BlobParams, LayoutParams};
    use rand::{rngs::StdRng, SeedableRng};
    let parcel_params = LayoutParams {
        world: msj_datagen::world(),
        count: parcels,
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
    let region_params = LayoutParams {
        world: msj_datagen::world(),
        count: regions,
        vertices_mu_ln: 24f64.ln(),
        vertices_sigma_ln: 0.5,
        vertices_min: 8,
        vertices_max: 100,
        radius_frac: 0.6,
        shape: BlobParams::default(),
    };
    [
        generate_relation(&mut StdRng::seed_from_u64(seed), &parcel_params),
        generate_relation(&mut StdRng::seed_from_u64(seed + 1), &region_params),
    ]
}

/// The raster pair of `filter_pair(15_000, 500, 1)` on its auto grid,
/// pinned when the rasterizer still tested every cell of each edge's
/// row span and every cell centre. `GOLDEN_PAIR`'s 48-object relations
/// have blocks of a few cells; these regions' blocks are large enough
/// that most boundary cells are decided by the rasterizer's margin rule
/// and most interior cells by its span fill.
const GOLDEN_REGION_PAIR: [(usize, u64); 2] =
    [(585828, 0x29ac4db03c462538), (734300, 0x8151c866747903e9)];

#[test]
fn region_scale_raster_pair_is_pinned() {
    let rels = filter_pair(15_000, 500, 1);
    let bits = auto_grid_bits(&rels[0], &rels[1]);
    let grid = RasterGrid::covering(&rels[0], &rels[1], bits).unwrap();
    let pinned = rels.each_ref().map(|rel| {
        let image = RasterStore::build(&grid, rel).to_bytes();
        (image.len(), fnv1a64(&image))
    });
    assert_eq!(bits, 10);
    assert_eq!(pinned, GOLDEN_REGION_PAIR);
}

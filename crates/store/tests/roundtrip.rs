//! Segment-file round trips: every artifact section survives persist +
//! load bit-exactly, and corruption degrades per section instead of
//! failing the file.

use msj_approx::{
    ConservativeKind, ConservativeStore, ProgressiveKind, ProgressiveStore, RasterGrid, RasterStore,
};
use msj_exact::TrStarStore;
use msj_geom::Relation;
use msj_sam::{PageLayout, RStarTree};
use msj_store::{DatasetParts, Section, SectionError, Store};
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("msj_store_test_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn relation() -> Relation {
    msj_datagen::small_carto(60, 12.0, 7)
}

fn build_tree(rel: &Relation) -> RStarTree {
    RStarTree::bulk_load(
        PageLayout::baseline(1024),
        rel.iter().map(|o| (o.region.mbr(), o.id)),
    )
}

fn parts<'a>(
    rel: &'a Relation,
    tree: &RStarTree,
    cons: &ConservativeStore,
    prog: &ProgressiveStore,
    trs: &'a TrStarStore,
) -> DatasetParts<'a> {
    DatasetParts {
        relation: rel,
        tree: Some(tree.export()),
        conservative: cons.export(),
        progressive: Some(prog.export()),
        trstar: Some(trs),
    }
}

#[test]
fn dataset_round_trip_is_bit_exact() {
    let dir = tmp_dir("roundtrip");
    let store = Store::open(&dir).unwrap();
    let rel = relation();
    let tree = build_tree(&rel);
    let cons = ConservativeStore::build(ConservativeKind::FiveCorner, &rel);
    let prog = ProgressiveStore::build(ProgressiveKind::Mer, &rel);
    let trs = TrStarStore::build(&rel, 3);

    let written = store
        .write_dataset(0, 0xC0FFEE, &parts(&rel, &tree, &cons, &prog, &trs))
        .unwrap();
    assert_eq!(written % 4096, 0, "segment is page-granular");
    assert_eq!(store.dataset_bytes(0).unwrap(), written);
    assert_eq!(store.dataset_ids().unwrap(), vec![0]);

    let load = store.read_dataset(0, None).unwrap();
    assert_eq!(load.config_tag, 0xC0FFEE);
    assert_eq!(load.bytes, written);

    let rel2 = load.relation.unwrap();
    assert_eq!(rel2.len(), rel.len());
    for (a, b) in rel.iter().zip(rel2.iter()) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.region.outer().vertices(), b.region.outer().vertices());
        assert_eq!(a.region.holes().len(), b.region.holes().len());
    }

    let tree2 = RStarTree::from_export(load.tree.unwrap().unwrap()).unwrap();
    assert_eq!(tree2.export(), tree.export());
    tree2.check_invariants().unwrap();

    let cons2 = ConservativeStore::from_export(load.conservative.unwrap().unwrap()).unwrap();
    assert_eq!(cons2.export(), cons.export());
    assert_eq!(cons2.avg_bytes(), cons.avg_bytes());

    let prog2 = ProgressiveStore::from_export(load.progressive.unwrap().unwrap()).unwrap();
    assert_eq!(prog2.export(), prog.export());

    // The TR* section is the arena's own image: it comes back as the
    // live type, equal column for column.
    assert_eq!(load.trstar.unwrap().unwrap(), trs);

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn pair_raster_round_trip_preserves_checksum() {
    let dir = tmp_dir("pair");
    let store = Store::open(&dir).unwrap();
    let rel_a = msj_datagen::small_carto(40, 10.0, 1);
    let rel_b = msj_datagen::small_carto(40, 10.0, 2);
    let grid = RasterGrid::covering(&rel_a, &rel_b, 6).unwrap();
    let ra = RasterStore::build(&grid, &rel_a);
    let rb = RasterStore::build(&grid, &rel_b);

    assert!(store.read_pair_raster(0, 1, None).unwrap().is_none());
    store
        .write_pair_raster(0, 1, 7, &ra.export(), &rb.export())
        .unwrap();
    let load = store.read_pair_raster(0, 1, None).unwrap().unwrap();
    assert_eq!(load.config_tag, 7);
    let ra2 = RasterStore::from_export(load.raster_a.unwrap()).unwrap();
    let rb2 = RasterStore::from_export(load.raster_b.unwrap()).unwrap();
    assert_eq!(ra2.checksum(), ra.checksum());
    assert_eq!(rb2.checksum(), rb.checksum());

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn tampered_section_fails_alone() {
    let dir = tmp_dir("tamper");
    let store = Store::open(&dir).unwrap();
    let rel = relation();
    let tree = build_tree(&rel);
    let cons = ConservativeStore::build(ConservativeKind::ConvexHull, &rel);
    let prog = ProgressiveStore::build(ProgressiveKind::Mec, &rel);
    let trs = TrStarStore::build(&rel, 3);
    store
        .write_dataset(3, 1, &parts(&rel, &tree, &cons, &prog, &trs))
        .unwrap();

    let mut hook = |section: Section, bytes: &mut [u8]| {
        if section == Section::Tree && !bytes.is_empty() {
            bytes[bytes.len() / 2] ^= 0x40;
        }
    };
    let load = store.read_dataset(3, Some(&mut hook)).unwrap();
    assert_eq!(load.tree.unwrap().unwrap_err(), SectionError::Checksum);
    // Every other section still verifies and decodes.
    assert!(load.relation.is_ok());
    assert!(load.conservative.unwrap().is_ok());
    assert!(load.progressive.unwrap().is_ok());
    assert!(load.trstar.unwrap().is_ok());

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_manifest_fails_the_file() {
    let dir = tmp_dir("manifest");
    let store = Store::open(&dir).unwrap();
    let rel = relation();
    store
        .write_dataset(
            0,
            1,
            &DatasetParts {
                relation: &rel,
                tree: None,
                conservative: None,
                progressive: None,
                trstar: None,
            },
        )
        .unwrap();
    let path = dir.join("ds_0.msj");
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[20] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();
    assert!(store.read_dataset(0, None).is_err());

    std::fs::remove_dir_all(&dir).unwrap();
}

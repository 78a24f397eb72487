//! Hostile bytes into every artifact decoder.
//!
//! A section payload is untrusted input: the checksum only says the bytes
//! are the bytes that were written, not that a friend wrote them. For each
//! of the four images a segment carries — relation, R*-tree, TR* arena,
//! raster — **every truncation prefix** and **every single-byte
//! flip** (a seeded mask and the top bit at each position) must come back
//! from `from_bytes` as an `Err`, or as a value whose `to_bytes` is exactly
//! the input. Never a panic; and a count prefix blown up to 2⁵⁶ by a flip
//! in its high byte must be refused before anything is sized from it, or
//! this test dies of the allocation. A raster image that is accepted must
//! also still hold what the Step-2a binary searches rely on — an
//! unsorted list re-encodes to itself just as faithfully as a sorted one.
//! For the same reason an R*-tree image whose leaf ids stop being a
//! permutation of the object ids is refused, flip by flip, and so is a
//! relation image whose ids stop being their positions.

use msj_approx::{RasterGrid, RasterStore};
use msj_exact::TrStarStore;
use msj_geom::Relation;
use msj_sam::{PageLayout, RStarTree};

/// Decodes and re-encodes; `None` when the decoder refuses the bytes.
type Reencode = fn(&[u8]) -> Option<Vec<u8>>;

fn images() -> Vec<(&'static str, Vec<u8>, Reencode)> {
    // Small on purpose — the loops below are quadratic in the image size
    // — but with holes, a three-level R*-tree and multi-level TR*-trees.
    let rel = msj_datagen::carto_with_holes(7, 9.0, 31);
    let other = msj_datagen::small_carto(5, 8.0, 32);
    let two_per_page = PageLayout {
        page_size: 96,
        leaf_entry_bytes: 48,
        dir_entry_bytes: 48,
    };
    let tree = RStarTree::bulk_load(two_per_page, rel.iter().map(|o| (o.mbr(), o.id)));
    assert!(
        tree.height() >= 3,
        "the tree image must hold directory levels"
    );
    let grid = RasterGrid::covering(&rel, &other, 4).expect("non-empty workspace");
    vec![
        ("relation", rel.to_bytes(), |b| {
            Some(Relation::from_bytes(b).ok()?.to_bytes())
        }),
        ("tree", tree.to_bytes(), |b| {
            Some(RStarTree::from_bytes(b).ok()?.to_bytes())
        }),
        ("trstar", TrStarStore::build(&other, 3).to_bytes(), |b| {
            Some(TrStarStore::from_bytes(b).ok()?.to_bytes())
        }),
        ("raster", RasterStore::build(&grid, &rel).to_bytes(), |b| {
            let store = RasterStore::from_bytes(b).ok()?;
            assert_searchable(&store);
            Some(store.to_bytes())
        }),
    ]
}

/// What `raster_decide` assumes of every signature, checked from the
/// outside: both lists made of non-empty runs inside the curve, strictly
/// increasing and never touching, and every F run inside one A run.
fn assert_searchable(store: &RasterStore) {
    let cells = 1u32 << (2 * store.grid().bits());
    for id in 0..store.len() as u32 {
        let sig = store.signature(id);
        for list in [sig.all(), sig.full()] {
            assert!(list.iter().all(|r| r.start < r.end && r.end <= cells));
            assert!(list.windows(2).all(|w| w[0].end < w[1].start));
        }
        for f in sig.full() {
            assert!(
                sig.all()
                    .iter()
                    .any(|a| a.start <= f.start && f.end <= a.end),
                "object {id}: FULL run {f:?} outside the A list"
            );
        }
    }
}

/// `(first byte, count)` of the eight counted columns of an R*-tree image
/// — levels, node rects, entry offsets, the entries' xmin, ymin, ymax and
/// xmax, values — walked past its 36-byte layout header.
fn tree_columns(image: &[u8]) -> [(usize, usize); 8] {
    let mut at = 36;
    [4, 8, 4, 8, 8, 8, 8, 4].map(|width| {
        let count = u64::from_le_bytes(image[at..at + 8].try_into().unwrap()) as usize;
        let column = (at + 8, count);
        at += 8 + width * count;
        column
    })
}

/// A leaf id is an index into every per-object column of the relation,
/// some of them read by unchecked SIMD gathers. Any change to one — out of
/// range, or a second copy of another object's id — must be refused, not
/// re-encoded faithfully as the byte sweep above would accept it.
#[test]
fn every_leaf_id_flip_is_refused() {
    let rel = msj_datagen::carto_with_holes(7, 9.0, 31);
    let layout = PageLayout::baseline(4096);
    let image = RStarTree::bulk_load(layout, rel.iter().map(|o| (o.mbr(), o.id))).to_bytes();
    let [levels, _, offsets, .., vals] = tree_columns(&image);
    assert_eq!(
        vals.0 + 4 * vals.1,
        image.len(),
        "the value column closes the image"
    );
    let u32_at = |col: (usize, usize), i: usize| {
        u32::from_le_bytes(image[col.0 + 4 * i..col.0 + 4 * i + 4].try_into().unwrap()) as usize
    };
    let mut flips = 0;
    for node in (0..levels.1).filter(|&node| u32_at(levels, node) == 0) {
        for entry in u32_at(offsets, node)..u32_at(offsets, node + 1) {
            for byte in vals.0 + 4 * entry..vals.0 + 4 * entry + 4 {
                for mask in [0x01, 0x80] {
                    let mut flipped = image.clone();
                    flipped[byte] ^= mask;
                    assert!(
                        RStarTree::from_bytes(&flipped).is_err(),
                        "leaf entry {entry}: byte {byte} ^ {mask:#04x} was adopted"
                    );
                    flips += 1;
                }
            }
        }
    }
    assert_eq!(flips, 8 * rel.len(), "every object's leaf id was flipped");
}

/// Every node stores its entries stably sorted by `xmin`, and the join
/// sweeps them without sorting: an image whose entries are out of that
/// order would re-encode faithfully and answer wrong, so it must be
/// refused. In every node, each adjacent pair of entries of distinct
/// `xmin` is swapped — all five of its columns — one pair at a time.
#[test]
fn every_sweep_order_break_is_refused() {
    let rel = msj_datagen::carto_with_holes(7, 9.0, 31);
    // One leaf root, and a three-level tree of two entries per page.
    let two_per_page = PageLayout {
        page_size: 96,
        leaf_entry_bytes: 48,
        dir_entry_bytes: 48,
    };
    let layouts = [PageLayout::baseline(4096), two_per_page];
    for layout in layouts {
        let image = RStarTree::bulk_load(layout, rel.iter().map(|o| (o.mbr(), o.id))).to_bytes();
        let [levels, _, offsets, xmin, ymin, ymax, xmax, vals] = tree_columns(&image);
        let u32_at = |i: usize| {
            let at = offsets.0 + 4 * i;
            u32::from_le_bytes(image[at..at + 4].try_into().unwrap()) as usize
        };
        let xmin_at = |j: usize| {
            let at = xmin.0 + 8 * j;
            f64::from_le_bytes(image[at..at + 8].try_into().unwrap())
        };
        let (mut nodes, mut swaps) = (0, 0);
        for node in 0..levels.1 {
            let run = u32_at(node)..u32_at(node + 1);
            let pairs: Vec<usize> = run
                .clone()
                .skip(1)
                .filter(|&j| xmin_at(j - 1) != xmin_at(j))
                .collect();
            nodes += usize::from(!pairs.is_empty());
            for j in pairs {
                let mut swapped = image.clone();
                for (start, width) in [
                    (xmin.0, 8),
                    (ymin.0, 8),
                    (ymax.0, 8),
                    (xmax.0, 8),
                    (vals.0, 4),
                ] {
                    let at = start + width * (j - 1);
                    swapped[at..at + 2 * width].rotate_left(width);
                }
                assert_eq!(
                    RStarTree::from_bytes(&swapped).err(),
                    Some("entries not in sweep order"),
                    "node {node}: entries {} and {j} swapped",
                    j - 1
                );
                swaps += 1;
            }
        }
        assert!(nodes >= 1 && swaps >= nodes, "{nodes} nodes, {swaps} swaps");
    }
}

/// A relation's ids index every per-object column downstream: an id that
/// is not its object's position must be refused, however it was written.
#[test]
fn every_relation_id_flip_is_refused() {
    let rel = msj_datagen::carto_with_holes(7, 9.0, 31);
    let image = rel.to_bytes();
    assert_eq!(
        image[..8],
        (rel.len() as u64).to_le_bytes(),
        "ids come first"
    );
    for byte in 8..8 + 4 * rel.len() {
        for mask in [0x01, 0x20, 0x80] {
            let mut flipped = image.clone();
            flipped[byte] ^= mask;
            assert_eq!(
                Relation::from_bytes(&flipped).err(),
                Some("relation ids are not their positions"),
                "id byte {byte} ^ {mask:#04x}"
            );
        }
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[test]
fn every_prefix_and_every_flip_is_refused_or_round_trips() {
    let mut rng = 0x5EED_u64;
    for (name, image, reencode) in images() {
        assert_eq!(
            reencode(&image).as_deref(),
            Some(&image[..]),
            "{name}: the untouched image must round-trip"
        );
        for cut in 0..image.len() {
            assert!(
                reencode(&image[..cut]).is_none(),
                "{name}: a {cut}-byte prefix of {} bytes was accepted",
                image.len()
            );
        }
        let mut accepted = 0usize;
        let mut mutated = image.clone();
        for at in 0..image.len() {
            let seeded = (splitmix64(&mut rng) % 255 + 1) as u8;
            for mask in [seeded, 0x80] {
                mutated[at] = image[at] ^ mask;
                if let Some(back) = reencode(&mutated) {
                    assert!(
                        back == mutated,
                        "{name}: byte {at} ^ {mask:#04x} decoded to a value that re-encodes differently"
                    );
                    accepted += 1;
                }
            }
            mutated[at] = image[at];
        }
        // Most flips land in coordinates, which are data, not structure.
        assert!(
            accepted > 0,
            "{name}: no flip decoded — is the table wired up?"
        );
    }
}

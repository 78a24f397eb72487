//! Hostile bytes into the container itself: the manifest page and the
//! section extents it describes.
//!
//! One dataset segment carrying every [`Section`] kind, payloads of
//! awkward sizes, is damaged on disk and read back:
//!
//! * every byte of the manifest page flipped by `0x01`, `0x80` and a
//!   seeded mask fails the file with `InvalidData` — never a panic, never
//!   a segment;
//! * a seeded flip inside one section fails that section alone with
//!   [`SectionError::Checksum`]; every other section still verifies;
//! * every truncation of the file fails it;
//! * a manifest stamped version 3 — summed either way — is refused as an
//!   "unsupported store version", as version 3 refused version 2;
//! * a re-summed manifest whose entries carry the retired tags 3 and 4
//!   (the conservative and progressive columns older writers stored)
//!   reads without those entries, while any other unknown tag fails the
//!   file;
//! * a file cut to a non-page multiple, or to a page boundary short of an
//!   extent, is refused by the size of the handle it was mapped from,
//!   before any section is viewed.

use msj_geom::{checksum, fnv1a64, PAGE_SIZE};
use msj_store::{Section, SectionError, Store};
use std::io::ErrorKind;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

/// Offset of the format version, of the section table and of the
/// manifest checksum in page 0, and the bytes of one table entry (its tag
/// first), per the module docs of `msj-store`.
const VERSION_AT: usize = 8;
const TABLE_AT: usize = 48;
const ENTRY: usize = 32;
const MANIFEST_SUM_AT: usize = PAGE_SIZE - 8;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("msj_store_hostile_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A non-zero byte mask drawn from `rng`.
fn mask(rng: &mut u64) -> u8 {
    (splitmix64(rng) % 255 + 1) as u8
}

/// Every section kind once: odd, one page exactly, one byte, a page and a
/// bit; the last one empty, so the final page is claimed by an extent that
/// ends exactly at the end of the file.
fn all_sections() -> Vec<(Section, Vec<u8>)> {
    let sizes = [100, 4096, 1, 4097, 0];
    let mut rng = 0xC0_57A1_u64;
    Section::ALL
        .into_iter()
        .zip(sizes)
        .map(|(section, n)| {
            (
                section,
                (0..n).map(|_| splitmix64(&mut rng) as u8).collect(),
            )
        })
        .collect()
}

/// Writes the every-section segment as dataset 0; its path and bytes.
fn written(store: &Store, dir: &Path) -> (PathBuf, Vec<u8>) {
    let sections = all_sections();
    store.write_dataset(0, 0xFEED, &sections).unwrap();
    let path = dir.join("ds_0.msj");
    let bytes = std::fs::read(&path).unwrap();
    (path, bytes)
}

fn refused(store: &Store) -> std::io::Error {
    match store.read_dataset(0, None) {
        Err(err) => err,
        Ok(_) => panic!("a damaged segment was accepted"),
    }
}

#[test]
fn every_manifest_byte_flip_fails_the_file() {
    let dir = tmp_dir("manifest");
    let store = Store::open(&dir).unwrap();
    let (path, bytes) = written(&store, &dir);
    let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    let mut rng = 0x5EED_u64;
    for at in 0..PAGE_SIZE {
        for m in [0x01, 0x80, mask(&mut rng)] {
            file.write_all_at(&[bytes[at] ^ m], at as u64).unwrap();
            let err = refused(&store);
            assert_eq!(
                err.kind(),
                ErrorKind::InvalidData,
                "byte {at} ^ {m:#04x}: {err}"
            );
        }
        file.write_all_at(&bytes[at..=at], at as u64).unwrap();
    }
    assert!(store.read_dataset(0, None).is_ok(), "restored file reads");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_flip_inside_one_section_fails_that_section_alone() {
    let dir = tmp_dir("section");
    let store = Store::open(&dir).unwrap();
    let sections = all_sections();
    let (path, bytes) = written(&store, &dir);
    // The writer lays the payloads out in table order after the manifest,
    // each from a page boundary; the layout is checked by content below.
    let clean = store.read_dataset(0, None).unwrap();
    let mut offset = PAGE_SIZE;
    let mut rng = 0xF11E_u64;
    for (section, payload) in &sections {
        assert_eq!(clean.section(*section), Some(Ok(&payload[..])));
        let here = offset;
        offset += payload.len().div_ceil(PAGE_SIZE) * PAGE_SIZE;
        if payload.is_empty() {
            continue;
        }
        assert_eq!(&bytes[here..here + payload.len()], &payload[..]);
        for _ in 0..8 {
            let at = here + (splitmix64(&mut rng) % payload.len() as u64) as usize;
            let mut damaged = bytes.clone();
            damaged[at] ^= mask(&mut rng);
            std::fs::write(&path, &damaged).unwrap();
            let load = store
                .read_dataset(0, None)
                .expect("a section flip is not a file error");
            for (other, other_payload) in &sections {
                let expect = if other == section {
                    Err(SectionError::Checksum)
                } else {
                    Ok(&other_payload[..])
                };
                assert_eq!(
                    load.section(*other),
                    Some(expect),
                    "{} after a flip at byte {at} of the {} section",
                    other.name(),
                    section.name()
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn every_truncation_fails_the_file() {
    let dir = tmp_dir("truncate");
    let store = Store::open(&dir).unwrap();
    let (path, bytes) = written(&store, &dir);
    let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    for cut in (0..bytes.len()).rev() {
        file.set_len(cut as u64).unwrap();
        let err = refused(&store);
        assert_eq!(
            err.kind(),
            ErrorKind::InvalidData,
            "{cut} of {} bytes: {err}",
            bytes.len()
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_version_3_manifest_is_refused_however_it_is_summed() {
    let dir = tmp_dir("v3");
    let store = Store::open(&dir).unwrap();
    let (path, bytes) = written(&store, &dir);
    assert_eq!(bytes[VERSION_AT..VERSION_AT + 4], 4u32.to_le_bytes());
    let stamped = |version: u32, sum: fn(&[u8]) -> u64| {
        let mut file = bytes.clone();
        file[VERSION_AT..VERSION_AT + 4].copy_from_slice(&version.to_le_bytes());
        let manifest_sum = sum(&file[..MANIFEST_SUM_AT]);
        file[MANIFEST_SUM_AT..PAGE_SIZE].copy_from_slice(&manifest_sum.to_le_bytes());
        std::fs::write(&path, &file).unwrap();
        refused(&store).to_string()
    };
    // As a version-3 writer left it (FNV-1a sums), and re-summed with
    // today's checksum: refused by version either way, not as corrupt.
    for sum in [fnv1a64 as fn(&[u8]) -> u64, checksum] {
        let err = stamped(3, sum);
        assert!(err.contains("unsupported store version"), "{err}");
    }
    // The current version summed the old way is a corrupt manifest.
    let err = stamped(4, fnv1a64);
    assert!(err.contains("manifest checksum mismatch"), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn retired_tags_are_skipped_and_unknown_tags_refused() {
    let dir = tmp_dir("tags");
    let store = Store::open(&dir).unwrap();
    let sections = all_sections();
    let (path, bytes) = written(&store, &dir);
    // The segment with table entry `i` tagged `tag` (and, when given, its
    // length set), the manifest re-summed as a writer would have.
    let retagged = |edits: &[(usize, u32, Option<u64>)]| {
        let mut file = bytes.clone();
        for &(i, tag, len) in edits {
            let at = TABLE_AT + i * ENTRY;
            file[at..at + 4].copy_from_slice(&tag.to_le_bytes());
            if let Some(len) = len {
                file[at + 16..at + 24].copy_from_slice(&len.to_le_bytes());
            }
        }
        let manifest_sum = checksum(&file[..MANIFEST_SUM_AT]);
        file[MANIFEST_SUM_AT..PAGE_SIZE].copy_from_slice(&manifest_sum.to_le_bytes());
        std::fs::write(&path, &file).unwrap();
        store.read_dataset(0, None)
    };
    let retired = [1, 3];
    let load = retagged(&[(retired[0], 3, None), (retired[1], 4, None)])
        .expect("retired tags are skipped");
    for (i, (section, payload)) in sections.iter().enumerate() {
        let expect = (!retired.contains(&i)).then_some(Ok(&payload[..]));
        assert_eq!(load.section(*section), expect, "{}", section.name());
    }
    // A retired entry is still extent-checked before it is skipped.
    let past_the_end = Some(bytes.len() as u64);
    let err = retagged(&[(retired[0], 3, past_the_end)]).err().unwrap();
    assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().contains("extent out of bounds"), "{err}");
    for tag in [0, 8] {
        let err = retagged(&[(retired[0], tag, None), (retired[1], 4, None)])
            .err()
            .unwrap();
        assert_eq!(err.kind(), ErrorKind::InvalidData, "tag {tag}: {err}");
        assert!(err.to_string().contains("unknown section tag"), "{err}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_short_file_is_refused_before_any_section_is_viewed() {
    let dir = tmp_dir("short");
    let store = Store::open(&dir).unwrap();
    let (path, bytes) = written(&store, &dir);
    let full = bytes.len();
    let refused_as = |cut: usize, why: &str| {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let err = refused(&store);
        assert_eq!(err.kind(), ErrorKind::InvalidData, "{cut} of {full}: {err}");
        assert!(err.to_string().contains(why), "{cut} of {full}: {err}");
    };
    for cut in [
        full - 1,
        full - PAGE_SIZE + 1,
        PAGE_SIZE + 100,
        PAGE_SIZE - 1,
        0,
    ] {
        refused_as(cut, "not a page multiple");
    }
    // Whole pages, but the last extent — a payload of a page and a byte —
    // ends past the cut.
    for pages in 1..full / PAGE_SIZE {
        refused_as(pages * PAGE_SIZE, "section extent out of bounds");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

//! # msj-store — persistent page-aligned section container
//!
//! Step 0 of the multi-step pipeline (Brinkhoff, Kriegel, Schneider,
//! Seeger; SIGMOD 1994) — R*-tree construction, TR* decompositions and
//! raster signatures — is by far the most expensive phase of a join. This
//! crate keeps the bytes of those artifacts on disk so an engine restart
//! is a **load** instead of a rebuild, and so a registered set larger than
//! RAM can be served by evicting and reloading cold datasets.
//!
//! ## Segment format
//!
//! One file per dataset (`ds_<id>.msj`) plus one file per prepared join
//! pair (`pair_<a>_<b>.msj`, the shared-grid raster signatures). A file is
//! a sequence of [`PAGE_SIZE`]-aligned sections preceded by a one-page
//! **manifest**:
//!
//! ```text
//! page 0   manifest: magic, format version, file kind, config tag,
//!          dataset ids, section table (tag / offset / length / checksum
//!          per section), manifest checksum
//! page 1.. section payloads, each starting on a page boundary,
//!          zero-padded to the next page
//! ```
//!
//! Every checksum is [`msj_geom::checksum`]: four independent
//! multiply–rotate lanes over little-endian words, which verifies at
//! memory speed (≈ 13 GB/s on one x86-64 core, against ≈ 0.85 GB/s for
//! the byte-serial FNV-1a that summed versions 1–3, when verification was
//! three quarters of a cold open). It always catches a change confined to
//! one 8-byte word, so every single-bit flip. It is an integrity check
//! against accidents, not a MAC: nothing here defends against a
//! deliberate forger, which is why every artifact's `from_bytes` still
//! validates what it adopts.
//!
//! Readers pull the whole file into one page-aligned buffer
//! ([`msj_geom::AlignedBuf`]), verify the manifest, and hand each section
//! back verified: as a `&[u8]` borrowed from that buffer
//! ([`Segment::section`]), which a decoder copies out of, or as a
//! [`msj_geom::SharedBytes`] that shares the buffer behind an `Arc`
//! ([`Segment::shared_section`]), which an artifact whose image is its
//! resident layout — the TR* arena — keeps where it lies. An opening
//! engine takes the relation section that way too, but only validates
//! it (`Relation::validate_image`, no allocation); beside a TR* arena it
//! keeps the range, and the relation is decoded later, once, if
//! something reads it. A refresh writes the bytes back unchanged. Every section
//! starts on a page boundary of the buffer, so a column of the image
//! that is aligned within its section is aligned in memory. **Corruption
//! is contained per section**: a bad
//! checksum surfaces as [`SectionError::Checksum`] for that section only,
//! so the engine rebuilds that one artifact — a dataset's from its
//! relation, a pair's raster signatures from both relations — instead of
//! refusing the dataset. Only a corrupt manifest fails the whole file.
//!
//! ## What this crate does not know
//!
//! A section is an opaque byte string with a name. What is *in* it — an
//! R*-tree, a TR* arena, raster signatures, the relation itself — is the
//! business of the artifact that owns the format: each one is its own
//! persistent image (`to_bytes` / validating `from_bytes`, written over
//! [`msj_geom::bytes`]), and the engine decides which sections a file
//! must carry and what to do when one is missing or fails. The crate
//! therefore depends on `msj-geom` alone, for the aligned buffer and the
//! checksum; CI keeps it that way.

use msj_geom::{checksum, AlignedBuf, SharedBytes, PAGE_SIZE};
use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Magic number opening every segment file ("MSJSTOR1").
pub const STORE_MAGIC: u64 = 0x4d53_4a53_544f_5231;

/// On-disk format version. Bump on any layout or checksum change; readers
/// reject every other version with an "unsupported store version" error —
/// there is no in-place migration, re-registering rewrites the segment.
/// Version 2 replaced the TR* section's export columns with the arena
/// image; version 3 replaced the raster sections' one class-tagged
/// interval list with an A column and an F column; version 4 sums the
/// sections and the manifest with [`msj_geom::checksum`] instead of
/// byte-serial FNV-1a (same payloads, ≈ 15 × faster to verify).
pub const STORE_VERSION: u32 = 4;

const FILE_KIND_DATASET: u32 = 1;
const FILE_KIND_PAIR: u32 = 2;

/// Manifest header bytes before the section table.
const MANIFEST_HEAD: usize = 48;
/// Bytes per section-table entry.
const SECTION_ENTRY: usize = 32;
/// Offset of the manifest checksum within page 0.
const MANIFEST_SUM_AT: usize = PAGE_SIZE - 8;

/// The artifact sections a segment file can carry; the discriminant is
/// the section's tag in the manifest table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum Section {
    /// The relation geometry itself — not rebuildable.
    Relation = 1,
    /// STR-packed R*-tree node arena.
    Tree = 2,
    /// TR* trapezoid decompositions.
    TrStar = 5,
    /// Raster signatures (A and F run columns) of pair side A.
    RasterA = 6,
    /// Raster signatures (A and F run columns) of pair side B.
    RasterB = 7,
}

/// Tags of the conservative (3) and progressive (4) approximation columns,
/// which are no longer stored: an entry with one is extent-checked, then
/// skipped. The engine builds approximations from the relation at load.
const RETIRED_TAGS: [u32; 2] = [3, 4];

impl Section {
    /// Every section kind, in tag order.
    pub const ALL: [Section; 5] = [
        Section::Relation,
        Section::Tree,
        Section::TrStar,
        Section::RasterA,
        Section::RasterB,
    ];

    /// Stable metric-label / fault-plan name.
    pub fn name(self) -> &'static str {
        match self {
            Section::Relation => "relation",
            Section::Tree => "tree",
            Section::TrStar => "trstar",
            Section::RasterA => "raster_a",
            Section::RasterB => "raster_b",
        }
    }

    fn from_tag(tag: u32) -> Option<Self> {
        Section::ALL.into_iter().find(|&s| s as u32 == tag)
    }
}

/// Why one section failed to load while the rest of the file was fine.
/// (A payload that verifies but does not decode is the owning artifact's
/// `from_bytes` error, not the container's.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SectionError {
    /// The stored [`msj_geom::checksum`] does not match the section
    /// bytes. Any change inside one 8-byte word of the payload — every
    /// single-bit flip — is always caught.
    Checksum,
}

/// Hook invoked on each raw section payload after the file is read and
/// before checksum verification — the seam `msj-fault`'s
/// `store_corrupt(section)` byte flip targets, so injected corruption
/// flows through the same verification path real corruption would.
pub type Tamper<'a> = &'a mut dyn FnMut(Section, &mut [u8]);

/// A dataset directory of segment files.
#[derive(Debug)]
pub struct Store {
    root: PathBuf,
}

impl Store {
    /// Opens (creating if needed) the store directory.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(Store { root })
    }

    /// The store directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn dataset_path(&self, id: u32) -> PathBuf {
        self.root.join(format!("ds_{id}.msj"))
    }

    fn pair_path(&self, a: u32, b: u32) -> PathBuf {
        self.root.join(format!("pair_{a}_{b}.msj"))
    }

    /// The persisted dataset ids, sorted ascending.
    pub fn dataset_ids(&self) -> io::Result<Vec<u32>> {
        let mut ids = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if let Some(id) = name
                .strip_prefix("ds_")
                .and_then(|s| s.strip_suffix(".msj"))
                .and_then(|s| s.parse::<u32>().ok())
            {
                ids.push(id);
            }
        }
        ids.sort_unstable();
        Ok(ids)
    }

    /// Writes a dataset's sections into its segment file (atomically:
    /// write-temp + rename) and returns the file size. Every pair segment
    /// naming `id` is removed first: it was derived from the dataset this
    /// write replaces, and nothing in a pair file says which.
    pub fn write_dataset(
        &self,
        id: u32,
        config_tag: u64,
        sections: &[(Section, Vec<u8>)],
    ) -> io::Result<u64> {
        self.remove_pairs_naming(id)?;
        self.write_segment(
            &self.dataset_path(id),
            FILE_KIND_DATASET,
            config_tag,
            id as u64,
            0,
            sections,
        )
    }

    /// Writes the sections of the pair `(a, b)` into its segment file.
    /// Returns the file size.
    pub fn write_pair(
        &self,
        a: u32,
        b: u32,
        config_tag: u64,
        sections: &[(Section, Vec<u8>)],
    ) -> io::Result<u64> {
        self.write_segment(
            &self.pair_path(a, b),
            FILE_KIND_PAIR,
            config_tag,
            a as u64,
            b as u64,
            sections,
        )
    }

    /// Loads a dataset's segment file. File-level failures (missing
    /// file, bad magic / version / manifest) are `Err`; section-level
    /// failures are reported inside the returned [`Segment`].
    pub fn read_dataset(&self, id: u32, tamper: Option<Tamper<'_>>) -> io::Result<Segment> {
        self.read_segment(&self.dataset_path(id), FILE_KIND_DATASET, (id, 0), tamper)
    }

    /// Loads the segment of the pair `(a, b)`. `Ok(None)` when the pair
    /// was never persisted (the caller builds and writes through).
    pub fn read_pair(
        &self,
        a: u32,
        b: u32,
        tamper: Option<Tamper<'_>>,
    ) -> io::Result<Option<Segment>> {
        let path = self.pair_path(a, b);
        if !path.exists() {
            return Ok(None);
        }
        self.read_segment(&path, FILE_KIND_PAIR, (a, b), tamper)
            .map(Some)
    }

    fn remove_pairs_naming(&self, id: u32) -> io::Result<()> {
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            let name = entry.file_name();
            let names_id = name
                .to_str()
                .and_then(|s| {
                    s.strip_prefix("pair_")?
                        .strip_suffix(".msj")?
                        .split_once('_')
                })
                .is_some_and(|(a, b)| a.parse() == Ok(id) || b.parse() == Ok(id));
            if names_id {
                fs::remove_file(entry.path())?;
            }
        }
        Ok(())
    }

    fn write_segment(
        &self,
        path: &Path,
        file_kind: u32,
        config_tag: u64,
        meta_a: u64,
        meta_b: u64,
        sections: &[(Section, Vec<u8>)],
    ) -> io::Result<u64> {
        assert!(
            MANIFEST_HEAD + sections.len() * SECTION_ENTRY <= MANIFEST_SUM_AT,
            "section table exceeds the manifest page"
        );
        let mut offset = PAGE_SIZE as u64;
        let mut table = Vec::with_capacity(sections.len());
        for (section, payload) in sections {
            table.push((*section, offset, payload.len() as u64, checksum(payload)));
            offset += pages_for(payload.len()) as u64;
        }
        let total = offset;

        let mut manifest = vec![0u8; PAGE_SIZE];
        manifest[0..8].copy_from_slice(&STORE_MAGIC.to_le_bytes());
        manifest[8..12].copy_from_slice(&STORE_VERSION.to_le_bytes());
        manifest[12..16].copy_from_slice(&file_kind.to_le_bytes());
        manifest[16..24].copy_from_slice(&config_tag.to_le_bytes());
        manifest[24..32].copy_from_slice(&meta_a.to_le_bytes());
        manifest[32..40].copy_from_slice(&meta_b.to_le_bytes());
        manifest[40..44].copy_from_slice(&(sections.len() as u32).to_le_bytes());
        for (i, (section, off, len, sum)) in table.iter().enumerate() {
            let at = MANIFEST_HEAD + i * SECTION_ENTRY;
            manifest[at..at + 4].copy_from_slice(&(*section as u32).to_le_bytes());
            manifest[at + 8..at + 16].copy_from_slice(&off.to_le_bytes());
            manifest[at + 16..at + 24].copy_from_slice(&len.to_le_bytes());
            manifest[at + 24..at + 32].copy_from_slice(&sum.to_le_bytes());
        }
        let sum = checksum(&manifest[..MANIFEST_SUM_AT]);
        manifest[MANIFEST_SUM_AT..].copy_from_slice(&sum.to_le_bytes());

        let tmp = path.with_extension("msj.tmp");
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&manifest)?;
            for (_, payload) in sections {
                f.write_all(payload)?;
                let pad = pages_for(payload.len()) - payload.len();
                if pad > 0 {
                    f.write_all(&vec![0u8; pad])?;
                }
            }
            f.sync_all()?;
        }
        fs::rename(&tmp, path)?;
        Ok(total)
    }

    fn read_segment(
        &self,
        path: &Path,
        expect_kind: u32,
        expect_ids: (u32, u32),
        mut tamper: Option<Tamper<'_>>,
    ) -> io::Result<Segment> {
        let meta = fs::metadata(path)?;
        let size = usize::try_from(meta.len()).map_err(|_| bad_data("segment too large"))?;
        if size < PAGE_SIZE || size % PAGE_SIZE != 0 {
            return Err(bad_data("segment size is not a page multiple"));
        }
        let mut buf = AlignedBuf::zeroed(size);
        fs::File::open(path)?.read_exact(buf.as_mut_slice())?;

        let m = &buf.as_slice()[..PAGE_SIZE];
        // The version says how the manifest is summed, so it is read
        // first: a file from an older writer is an unsupported version,
        // not a corrupt one.
        if read_u64(m, 0) != STORE_MAGIC {
            return Err(bad_data("bad magic"));
        }
        if read_u32(m, 8) != STORE_VERSION {
            return Err(bad_data("unsupported store version"));
        }
        if checksum(&m[..MANIFEST_SUM_AT]) != read_u64(m, MANIFEST_SUM_AT) {
            return Err(bad_data("manifest checksum mismatch"));
        }
        if read_u32(m, 12) != expect_kind {
            return Err(bad_data("unexpected segment kind"));
        }
        if (read_u64(m, 24), read_u64(m, 32)) != (expect_ids.0.into(), expect_ids.1.into()) {
            return Err(bad_data("segment file claims different dataset ids"));
        }
        let config_tag = read_u64(m, 16);
        let count = read_u32(m, 40) as usize;
        if MANIFEST_HEAD + count * SECTION_ENTRY > MANIFEST_SUM_AT {
            return Err(bad_data("section table overflows the manifest"));
        }
        let mut sections = Vec::with_capacity(count);
        for i in 0..count {
            let at = MANIFEST_HEAD + i * SECTION_ENTRY;
            let tag = read_u32(m, at);
            let section = Section::from_tag(tag);
            if section.is_none() && !RETIRED_TAGS.contains(&tag) {
                return Err(bad_data("unknown section tag"));
            }
            let offset = read_u64(m, at + 8) as usize;
            let len = read_u64(m, at + 16) as usize;
            if !offset.is_multiple_of(PAGE_SIZE)
                || offset.checked_add(len).is_none_or(|end| end > size)
            {
                return Err(bad_data("section extent out of bounds"));
            }
            let Some(section) = section else { continue };
            sections.push(SectionEntry {
                section,
                offset,
                len,
                checksum: read_u64(m, at + 24),
            });
        }
        if let Some(hook) = tamper.as_mut() {
            // In place: the buffer is this load's own copy of the file,
            // and a fault must corrupt exactly the bytes the checksum
            // guards.
            for e in &sections {
                hook(
                    e.section,
                    &mut buf.as_mut_slice()[e.offset..e.offset + e.len],
                );
            }
        }
        Ok(Segment {
            config_tag,
            bytes: size as u64,
            sections,
            buf: Arc::new(buf),
        })
    }
}

struct SectionEntry {
    section: Section,
    offset: usize,
    len: usize,
    checksum: u64,
}

/// One segment file, read and manifest-verified; sections verify as they
/// are asked for.
pub struct Segment {
    /// The writer's configuration tag.
    pub config_tag: u64,
    /// Total file bytes (a dataset's footprint for residency budgets).
    pub bytes: u64,
    sections: Vec<SectionEntry>,
    /// The whole file, shared with every section handed out by
    /// [`Segment::shared_section`].
    buf: Arc<AlignedBuf>,
}

impl Segment {
    /// The payload of `section`, checksum-verified. `None` means the
    /// section was never written; `Some(Err(_))` means it was written but
    /// no longer verifies — the caller rebuilds that artifact.
    pub fn section(&self, section: Section) -> Option<Result<&[u8], SectionError>> {
        let verified = self.verified(section)?;
        Some(verified.map(|range| &self.buf.as_slice()[range]))
    }

    /// [`Segment::section`] as a range of the segment's buffer that
    /// keeps the buffer alive: an artifact adopted from it in place
    /// outlives the segment. The range starts on a page boundary.
    pub fn shared_section(&self, section: Section) -> Option<Result<SharedBytes, SectionError>> {
        let verified = self.verified(section)?;
        Some(verified.map(|range| SharedBytes::new(self.buf.clone(), range)))
    }

    fn verified(&self, section: Section) -> Option<Result<std::ops::Range<usize>, SectionError>> {
        let entry = self.sections.iter().find(|e| e.section == section)?;
        let range = entry.offset..entry.offset + entry.len;
        Some(
            if checksum(&self.buf.as_slice()[range.clone()]) == entry.checksum {
                Ok(range)
            } else {
                Err(SectionError::Checksum)
            },
        )
    }
}

fn pages_for(len: usize) -> usize {
    len.div_ceil(PAGE_SIZE) * PAGE_SIZE
}

fn bad_data(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

fn read_u32(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(buf[at..at + 4].try_into().unwrap())
}

fn read_u64(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().unwrap())
}

//! # msj-store — persistent page-aligned Step-0 artifact store
//!
//! Step 0 of the multi-step pipeline (Brinkhoff, Kriegel, Schneider,
//! Seeger; SIGMOD 1994) — R*-tree construction, conservative /
//! progressive approximation stores, TR* decompositions and raster
//! signatures — is by far the most expensive phase of a join. This crate
//! persists those artifacts so an engine restart is an **mmap-style
//! load** instead of a rebuild, and so a registered set larger than RAM
//! can be served by evicting and reloading cold datasets.
//!
//! ## Segment format
//!
//! One file per dataset (`ds_<id>.msj`) plus one file per prepared join
//! pair's shared-grid raster signatures (`pair_<a>_<b>.msj`). A file is
//! a sequence of [`PAGE_SIZE`]-aligned sections preceded by a one-page
//! **manifest**:
//!
//! ```text
//! page 0   manifest: magic, format version, file kind, config tag,
//!          dataset ids, section table (tag / offset / length / FNV-1a
//!          checksum per section), manifest checksum
//! page 1.. section payloads, each starting on a page boundary,
//!          zero-padded to the next page
//! ```
//!
//! Readers pull the whole file into one page-aligned buffer
//! ([`msj_geom::AlignedBuf`]), verify the manifest, then verify and
//! decode each section independently. **Corruption degrades per
//! section**: a bad checksum surfaces as [`SectionError::Checksum`] for
//! that section only, so the engine can rebuild one artifact from the
//! relation (or drop a pair to the filter-only path) instead of refusing
//! the dataset. Only a corrupt manifest or relation section — the
//! geometry itself, which cannot be rebuilt from anything else — fails
//! the whole load.
//!
//! Section payloads are pure little-endian column streams over the
//! artifact crates' flat export images (`f64`s via `to_bits`, so every
//! bit pattern — including the progressive stores' NaN sentinels —
//! round-trips exactly). Decoding is a linear repack with no geometric
//! recomputation, which is what makes the cold start fast. The TR*
//! section (format version 2) goes one step further: its payload is the
//! live arena's own image (`msj_exact::TrStarStore::to_bytes`), which
//! `from_bytes` validates and adopts without an intermediate type.

mod codec;
mod payload;

use msj_approx::{ConsExport, ProgExport, RasterExport};
use msj_exact::TrStarStore;
use msj_geom::{fnv1a64, AlignedBuf, Relation, PAGE_SIZE};
use msj_sam::TreeExport;
use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// Magic number opening every segment file ("MSJSTOR1").
pub const STORE_MAGIC: u64 = 0x4d53_4a53_544f_5231;

/// On-disk format version. Bump on any layout change; readers reject
/// every other version with an "unsupported store version" error —
/// there is no in-place migration, re-registering rewrites the segment.
/// Version 2 replaced the TR* section's export columns with the arena
/// image.
pub const STORE_VERSION: u32 = 2;

const FILE_KIND_DATASET: u32 = 1;
const FILE_KIND_PAIR: u32 = 2;

/// Manifest header bytes before the section table.
const MANIFEST_HEAD: usize = 48;
/// Bytes per section-table entry.
const SECTION_ENTRY: usize = 32;
/// Offset of the manifest checksum within page 0.
const MANIFEST_SUM_AT: usize = PAGE_SIZE - 8;

/// The artifact sections a segment file can carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// The relation geometry itself — required; not rebuildable.
    Relation,
    /// STR-packed R*-tree node arena.
    Tree,
    /// Conservative approximation columns + false-area table.
    Conservative,
    /// Progressive approximation columns.
    Progressive,
    /// TR* trapezoid decompositions.
    TrStar,
    /// Raster interval arena of pair side A.
    RasterA,
    /// Raster interval arena of pair side B.
    RasterB,
}

impl Section {
    /// Every section kind, in table order.
    pub const ALL: [Section; 7] = [
        Section::Relation,
        Section::Tree,
        Section::Conservative,
        Section::Progressive,
        Section::TrStar,
        Section::RasterA,
        Section::RasterB,
    ];

    /// Stable metric-label / fault-plan name.
    pub fn name(self) -> &'static str {
        match self {
            Section::Relation => "relation",
            Section::Tree => "tree",
            Section::Conservative => "conservative",
            Section::Progressive => "progressive",
            Section::TrStar => "trstar",
            Section::RasterA => "raster_a",
            Section::RasterB => "raster_b",
        }
    }

    fn tag(self) -> u32 {
        match self {
            Section::Relation => 1,
            Section::Tree => 2,
            Section::Conservative => 3,
            Section::Progressive => 4,
            Section::TrStar => 5,
            Section::RasterA => 6,
            Section::RasterB => 7,
        }
    }

    fn from_tag(tag: u32) -> Option<Self> {
        Section::ALL.into_iter().find(|s| s.tag() == tag)
    }
}

/// Why one section failed to load while the rest of the file was fine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SectionError {
    /// Stored FNV-1a checksum does not match the section bytes.
    Checksum,
    /// Checksum matched but the payload does not decode (format bug or
    /// a collision-grade corruption).
    Malformed,
}

/// The per-dataset artifacts handed to [`Store::write_dataset`].
/// `relation` is mandatory; every artifact export is optional (a
/// configuration may not build that artifact, or a `Mixed` conservative
/// store may decline to export).
pub struct DatasetParts<'a> {
    pub relation: &'a Relation,
    pub tree: Option<TreeExport>,
    pub conservative: Option<ConsExport>,
    pub progressive: Option<ProgExport>,
    pub trstar: Option<&'a TrStarStore>,
}

/// Result of [`Store::read_dataset`]: per-section outcomes. `None`
/// means the section was never written; `Some(Err(_))` means it was
/// written but failed verification or decoding — the caller rebuilds
/// that artifact from the relation.
pub struct DatasetLoad {
    pub config_tag: u64,
    /// Total file bytes (the dataset's footprint for residency budgets).
    pub bytes: u64,
    pub relation: Result<Relation, SectionError>,
    pub tree: Option<Result<TreeExport, SectionError>>,
    pub conservative: Option<Result<ConsExport, SectionError>>,
    pub progressive: Option<Result<ProgExport, SectionError>>,
    pub trstar: Option<Result<TrStarStore, SectionError>>,
}

/// Result of [`Store::read_pair_raster`].
pub struct PairLoad {
    pub config_tag: u64,
    pub bytes: u64,
    pub raster_a: Result<RasterExport, SectionError>,
    pub raster_b: Result<RasterExport, SectionError>,
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

    /// Size in bytes of a persisted dataset's segment file.
    pub fn dataset_bytes(&self, id: u32) -> io::Result<u64> {
        Ok(fs::metadata(self.dataset_path(id))?.len())
    }

    /// Per-section payload sizes of a persisted dataset's segment file,
    /// in section-table order — the bench's file-size breakdown.
    pub fn dataset_sections(&self, id: u32) -> io::Result<Vec<(Section, u64)>> {
        let (seg, _) = self.read_segment(&self.dataset_path(id), FILE_KIND_DATASET)?;
        Ok(seg
            .sections
            .iter()
            .map(|e| (e.section, e.len as u64))
            .collect())
    }

    /// Serializes a dataset's Step-0 artifacts into its segment file
    /// (atomically: write-temp + rename). Returns the file size.
    pub fn write_dataset(
        &self,
        id: u32,
        config_tag: u64,
        parts: &DatasetParts<'_>,
    ) -> io::Result<u64> {
        let mut sections: Vec<(Section, Vec<u8>)> = Vec::with_capacity(5);
        sections.push((Section::Relation, payload::encode_relation(parts.relation)));
        if let Some(t) = &parts.tree {
            sections.push((Section::Tree, payload::encode_tree(t)));
        }
        if let Some(c) = &parts.conservative {
            sections.push((Section::Conservative, payload::encode_conservative(c)));
        }
        if let Some(p) = &parts.progressive {
            sections.push((Section::Progressive, payload::encode_progressive(p)));
        }
        if let Some(t) = parts.trstar {
            sections.push((Section::TrStar, t.to_bytes()));
        }
        self.write_segment(
            &self.dataset_path(id),
            FILE_KIND_DATASET,
            config_tag,
            id as u64,
            0,
            &sections,
        )
    }

    /// Serializes a prepared pair's shared-grid raster stores. Returns
    /// the file size.
    pub fn write_pair_raster(
        &self,
        a: u32,
        b: u32,
        config_tag: u64,
        raster_a: &RasterExport,
        raster_b: &RasterExport,
    ) -> io::Result<u64> {
        let sections = vec![
            (Section::RasterA, payload::encode_raster(raster_a)),
            (Section::RasterB, payload::encode_raster(raster_b)),
        ];
        self.write_segment(
            &self.pair_path(a, b),
            FILE_KIND_PAIR,
            config_tag,
            a as u64,
            b as u64,
            &sections,
        )
    }

    /// Loads a dataset's segment file. File-level failures (missing
    /// file, bad magic / version / manifest) are `Err`; section-level
    /// failures degrade inside the returned [`DatasetLoad`].
    pub fn read_dataset(&self, id: u32, mut tamper: Option<Tamper<'_>>) -> io::Result<DatasetLoad> {
        let (seg, bytes) = self.read_segment(&self.dataset_path(id), FILE_KIND_DATASET)?;
        if seg.meta_a != id as u64 {
            return Err(bad_data("segment file claims a different dataset id"));
        }
        let mut load = DatasetLoad {
            config_tag: seg.config_tag,
            bytes,
            relation: Err(SectionError::Checksum),
            tree: None,
            conservative: None,
            progressive: None,
            trstar: None,
        };
        let mut saw_relation = false;
        for entry in &seg.sections {
            let payload = seg.section_bytes(entry, &mut tamper);
            match entry.section {
                Section::Relation => {
                    saw_relation = true;
                    load.relation =
                        payload.and_then(|b| ok_or_malformed(payload::decode_relation(b)));
                }
                Section::Tree => {
                    load.tree =
                        Some(payload.and_then(|b| ok_or_malformed(payload::decode_tree(b))));
                }
                Section::Conservative => {
                    load.conservative = Some(
                        payload.and_then(|b| ok_or_malformed(payload::decode_conservative(b))),
                    );
                }
                Section::Progressive => {
                    load.progressive =
                        Some(payload.and_then(|b| ok_or_malformed(payload::decode_progressive(b))));
                }
                Section::TrStar => {
                    load.trstar = Some(payload.and_then(|b| {
                        TrStarStore::from_bytes(b).map_err(|_| SectionError::Malformed)
                    }));
                }
                Section::RasterA | Section::RasterB => {
                    return Err(bad_data("raster section in a dataset segment"));
                }
            }
        }
        if !saw_relation {
            return Err(bad_data("dataset segment missing relation section"));
        }
        Ok(load)
    }

    /// Loads a pair's raster segment. `Ok(None)` when the pair was never
    /// persisted (the caller builds and writes through).
    pub fn read_pair_raster(
        &self,
        a: u32,
        b: u32,
        mut tamper: Option<Tamper<'_>>,
    ) -> io::Result<Option<PairLoad>> {
        let path = self.pair_path(a, b);
        if !path.exists() {
            return Ok(None);
        }
        let (seg, bytes) = self.read_segment(&path, FILE_KIND_PAIR)?;
        if seg.meta_a != a as u64 || seg.meta_b != b as u64 {
            return Err(bad_data("pair segment claims different dataset ids"));
        }
        let mut load = PairLoad {
            config_tag: seg.config_tag,
            bytes,
            raster_a: Err(SectionError::Checksum),
            raster_b: Err(SectionError::Checksum),
        };
        let (mut saw_a, mut saw_b) = (false, false);
        for entry in &seg.sections {
            let payload = seg.section_bytes(entry, &mut tamper);
            match entry.section {
                Section::RasterA => {
                    saw_a = true;
                    load.raster_a =
                        payload.and_then(|b| ok_or_malformed(payload::decode_raster(b)));
                }
                Section::RasterB => {
                    saw_b = true;
                    load.raster_b =
                        payload.and_then(|b| ok_or_malformed(payload::decode_raster(b)));
                }
                _ => return Err(bad_data("non-raster section in a pair segment")),
            }
        }
        if !saw_a || !saw_b {
            return Err(bad_data("pair segment missing a raster section"));
        }
        Ok(Some(load))
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
            table.push((*section, offset, payload.len() as u64, fnv1a64(payload)));
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
            manifest[at..at + 4].copy_from_slice(&section.tag().to_le_bytes());
            manifest[at + 8..at + 16].copy_from_slice(&off.to_le_bytes());
            manifest[at + 16..at + 24].copy_from_slice(&len.to_le_bytes());
            manifest[at + 24..at + 32].copy_from_slice(&sum.to_le_bytes());
        }
        let sum = fnv1a64(&manifest[..MANIFEST_SUM_AT]);
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

    fn read_segment(&self, path: &Path, expect_kind: u32) -> io::Result<(Segment, u64)> {
        let meta = fs::metadata(path)?;
        let size = usize::try_from(meta.len()).map_err(|_| bad_data("segment too large"))?;
        if size < PAGE_SIZE || size % PAGE_SIZE != 0 {
            return Err(bad_data("segment size is not a page multiple"));
        }
        let mut buf = AlignedBuf::zeroed(size);
        fs::File::open(path)?.read_exact(buf.as_mut_slice())?;

        let m = &buf.as_slice()[..PAGE_SIZE];
        let stored_sum = read_u64(m, MANIFEST_SUM_AT);
        if fnv1a64(&m[..MANIFEST_SUM_AT]) != stored_sum {
            return Err(bad_data("manifest checksum mismatch"));
        }
        if read_u64(m, 0) != STORE_MAGIC {
            return Err(bad_data("bad magic"));
        }
        if read_u32(m, 8) != STORE_VERSION {
            return Err(bad_data("unsupported store version"));
        }
        if read_u32(m, 12) != expect_kind {
            return Err(bad_data("unexpected segment kind"));
        }
        let config_tag = read_u64(m, 16);
        let meta_a = read_u64(m, 24);
        let meta_b = read_u64(m, 32);
        let count = read_u32(m, 40) as usize;
        if MANIFEST_HEAD + count * SECTION_ENTRY > MANIFEST_SUM_AT {
            return Err(bad_data("section table overflows the manifest"));
        }
        let mut sections = Vec::with_capacity(count);
        for i in 0..count {
            let at = MANIFEST_HEAD + i * SECTION_ENTRY;
            let section = Section::from_tag(read_u32(m, at))
                .ok_or_else(|| bad_data("unknown section tag"))?;
            let offset = read_u64(m, at + 8) as usize;
            let len = read_u64(m, at + 16) as usize;
            if !offset.is_multiple_of(PAGE_SIZE)
                || offset.checked_add(len).is_none_or(|end| end > size)
            {
                return Err(bad_data("section extent out of bounds"));
            }
            sections.push(SectionEntry {
                section,
                offset,
                len,
                checksum: read_u64(m, at + 24),
            });
        }
        Ok((
            Segment {
                config_tag,
                meta_a,
                meta_b,
                sections,
                buf,
            },
            size as u64,
        ))
    }
}

struct SectionEntry {
    section: Section,
    offset: usize,
    len: usize,
    checksum: u64,
}

struct Segment {
    config_tag: u64,
    meta_a: u64,
    meta_b: u64,
    sections: Vec<SectionEntry>,
    buf: AlignedBuf,
}

impl Segment {
    /// The verified payload of one section, after the optional tamper
    /// hook has had its shot at the raw bytes.
    fn section_bytes(
        &self,
        entry: &SectionEntry,
        tamper: &mut Option<Tamper<'_>>,
    ) -> Result<&[u8], SectionError> {
        let bytes = &self.buf.as_slice()[entry.offset..entry.offset + entry.len];
        if let Some(hook) = tamper.as_mut() {
            // The hook mutates a scratch copy: the aligned buffer is
            // shared by every section read, and a fault must corrupt
            // exactly the bytes the checksum guards.
            let mut scratch = bytes.to_vec();
            hook(entry.section, &mut scratch);
            if scratch != bytes {
                // Verify (and fail) against the tampered image.
                return if fnv1a64(&scratch) == entry.checksum {
                    Err(SectionError::Malformed)
                } else {
                    Err(SectionError::Checksum)
                };
            }
        }
        if fnv1a64(bytes) != entry.checksum {
            return Err(SectionError::Checksum);
        }
        Ok(bytes)
    }
}

fn pages_for(len: usize) -> usize {
    len.div_ceil(PAGE_SIZE) * PAGE_SIZE
}

fn bad_data(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

fn ok_or_malformed<T>(r: Result<T, &'static str>) -> Result<T, SectionError> {
    r.map_err(|_| SectionError::Malformed)
}

fn read_u32(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(buf[at..at + 4].try_into().unwrap())
}

fn read_u64(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().unwrap())
}

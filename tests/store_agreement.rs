//! Store agreement: the persistent Step-0 store must be invisible to
//! answers.
//!
//! * **Cold start** — register → persist → drop the engine →
//!   [`SpatialEngine::open`] from the segment files: every request kind
//!   (join, self-join, point, window) answers byte-identically across
//!   the full {backend} × {execution / threads} matrix, with zero
//!   re-parsing of the source relations.
//! * **Eviction** — an undersized residency budget keeps evicting cold
//!   datasets; every touch reloads from disk and still answers
//!   identically.
//! * **Corruption** — a seeded `store_corrupt:<section>` fault flips one
//!   bit in a segment section before checksum verification. Loads must
//!   rebuild the artifact — the pair's raster signatures included, which
//!   are written through again — count the section once and answer
//!   byte-identically — never panic, never wedge. Seeds come from
//!   `MSJ_FAULT_SEED` when set, mirroring the CI chaos loop.
//! * **Adoption** — the stored TR* arena is adopted where it lies in the
//!   segment buffer: equal to a fresh build, never rebuilt on a clean
//!   open, and Step 3 runs the writer's tests and hits.
//! * **Crafted bytes** — a TR* arena with a valid checksum but a cyclic
//!   child run is rejected by the loader's structural pass and rebuilt
//!   like a corrupt one, and so is an R*-tree whose leaf names an object
//!   the relation does not have; a relation section whose ids are not
//!   their positions fails the open; a format-version-1 segment fails the
//!   open with the typed "unsupported store version" error; a version-2
//!   *pair* segment beside current dataset files is rebuilt and
//!   rewritten.
//! * **Another configuration** — a directory written under the paper's
//!   TR* node capacity, or by an older writer under a plan that ran
//!   5-corner and MER, one that ran MER, or the grid backend (whose
//!   segments held no R*-tree), opens: rebuilt once, refreshed in place,
//!   adopted from then on.
//! * **Mapping** — an open maps its segments privately: a `store_corrupt`
//!   fault flips bytes in the load's own pages and leaves every file on
//!   disk byte-identical, and an opened engine answers identically after
//!   its store directory is removed or its dataset segment is replaced by
//!   a rename, since its mappings keep the inodes they were opened from.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use msj::approx::{ConservativeKind, ProgressiveKind};
use msj::core::{
    Backend, EngineConfig, Execution, FaultConfig, FaultKind, JoinConfig, Request, Response,
    SpatialEngine, StoreConfig,
};
use msj::exact::ExactAlgorithm;
use msj::geom::{Point, Rect, Relation};
use msj_store::Section;

/// Small batches so fused runs cross several batch boundaries.
const BATCH: usize = 16;

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A fresh, unique store directory under the OS temp root.
fn tmp_store(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "msj-store-agreement-{}-{}-{}",
        std::process::id(),
        tag,
        DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

fn seeds() -> Vec<u64> {
    match std::env::var("MSJ_FAULT_SEED")
        .ok()
        .and_then(|s| s.trim().parse::<u64>().ok())
    {
        Some(seed) => vec![seed],
        None => vec![11, 42, 977],
    }
}

fn matrix() -> Vec<(Backend, Execution)> {
    let backends = [
        Backend::RStarTraversal,
        Backend::PartitionedSweep {
            tiles_per_axis: 6,
            threads: 0,
        },
    ];
    let executions = [
        Execution::Serial,
        Execution::Fused { threads: 1 },
        Execution::Fused { threads: 4 },
    ];
    backends
        .iter()
        .flat_map(|&b| executions.iter().map(move |&e| (b, e)))
        .collect()
}

fn config(backend: Backend, execution: Execution, fault: FaultConfig) -> EngineConfig {
    let join = JoinConfig::builder()
        .backend(backend)
        .execution(execution)
        .batch_pairs(BATCH)
        .build();
    EngineConfig {
        fault,
        ..join.into()
    }
}

/// One request of every kind the engine serves, with selection geometry
/// derived from the data so every response is non-trivial.
fn workload(a: &Relation) -> Vec<Request> {
    let point = a.iter().nth(3).expect("dataset too small").mbr().center();
    let win = a.iter().nth(7).expect("dataset too small").mbr();
    let window = Rect::new(
        Point::new(win.xmin() - 1.0, win.ymin() - 1.0),
        Point::new(win.xmax() + 1.0, win.ymax() + 1.0),
    );
    vec![
        Request::Join {
            a: 0,
            b: 1,
            execution: None,
        },
        Request::SelfJoin {
            dataset: 0,
            execution: None,
        },
        Request::Point { dataset: 0, point },
        Request::Window { dataset: 1, window },
    ]
}

/// Flattens every response into comparable payload vectors; errors fail
/// the test at the call site.
fn run(engine: &SpatialEngine, requests: &[Request]) -> Vec<Vec<u64>> {
    engine
        .submit_batch(requests.iter().cloned())
        .into_iter()
        .map(|response| match response.expect("request failed") {
            Response::Join(join) => join
                .pairs
                .into_iter()
                .map(|(x, y)| (u64::from(x) << 32) | u64::from(y))
                .collect(),
            Response::Selection(sel) => sel.ids.into_iter().map(u64::from).collect(),
        })
        .collect()
}

/// Asserts every `msj_store_checksum_failures_total` series reads 0.
fn assert_no_checksum_failures(prom: &str, why: &str) {
    for line in prom
        .lines()
        .filter(|l| l.starts_with("msj_store_checksum_failures_total{"))
    {
        assert!(line.ends_with(" 0"), "{why}: {line}");
    }
}

/// Candidates the raster stage decided in the last run of the join of
/// datasets 0 and 1.
fn pair_raster_decisions(engine: &SpatialEngine) -> u64 {
    let (a, b) = (engine.dataset(0).unwrap(), engine.dataset(1).unwrap());
    let stats = engine
        .prepare_join(&a, &b)
        .last_stats()
        .expect("the join ran");
    stats.raster_hits + stats.raster_drops
}

/// The file's identity on disk: a segment write (temp file + rename)
/// gives the path a new one.
fn file_id(path: &std::path::Path) -> u64 {
    std::os::unix::fs::MetadataExt::ino(&std::fs::metadata(path).expect("file exists"))
}

#[test]
fn reopened_engine_answers_identically() {
    let a = msj::datagen::small_carto(120, 24.0, 9101);
    let b = msj::datagen::small_carto(120, 24.0, 9102);
    let requests = workload(&a);
    for (backend, execution) in matrix() {
        let dir = tmp_store("reopen");
        let cfg = config(backend, execution, FaultConfig::disabled());
        let reference = {
            let engine = SpatialEngine::new(cfg)
                .with_store(StoreConfig::new(&dir))
                .expect("arm store");
            engine.register(a.clone());
            engine.register(b.clone());
            run(&engine, &requests)
        }; // engine dropped; only the segment files survive
        assert!(
            reference.iter().any(|payload| !payload.is_empty()),
            "degenerate workload for {backend:?}/{execution:?}"
        );

        let reopened = SpatialEngine::open(cfg, StoreConfig::new(&dir)).expect("cold start");
        assert_eq!(reopened.num_datasets(), 2, "both datasets restored");
        assert_eq!(
            run(&reopened, &requests),
            reference,
            "cold start drifted on {backend:?}/{execution:?}"
        );
        // A restored store must load clean: no checksum failures.
        let prom = reopened.metrics().render_prometheus();
        for section in Section::ALL {
            assert!(
                prom.contains(&format!(
                    "msj_store_checksum_failures_total{{section=\"{}\"}} 0",
                    section.name()
                )),
                "unexpected checksum failure for {} on {backend:?}/{execution:?}",
                section.name()
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn undersized_budget_evicts_and_reloads_identically() {
    let a = msj::datagen::small_carto(100, 20.0, 9103);
    let b = msj::datagen::small_carto(100, 20.0, 9104);
    let c = msj::datagen::small_carto(100, 20.0, 9105);
    let cfg = JoinConfig::builder().batch_pairs(BATCH).build();

    // Reference: no store, everything resident.
    let free = SpatialEngine::new(cfg);
    free.register(a.clone());
    free.register(b.clone());
    free.register(c.clone());
    let pairs = [(0u32, 1u32), (1, 2), (0, 2)];
    let reference: Vec<_> = pairs
        .iter()
        .map(|&(x, y)| {
            run(
                &free,
                &[Request::Join {
                    a: x,
                    b: y,
                    execution: None,
                }],
            )
        })
        .collect();

    // A budget far below one dataset: every touch evicts the previous
    // resident and re-materializes from disk.
    let dir = tmp_store("evict");
    let engine = SpatialEngine::new(cfg)
        .with_store(StoreConfig::new(&dir).with_byte_budget(4096))
        .expect("arm store");
    engine.register(a);
    engine.register(b);
    engine.register(c);
    for round in 0..2 {
        for (i, &(x, y)) in pairs.iter().enumerate() {
            let got = run(
                &engine,
                &[Request::Join {
                    a: x,
                    b: y,
                    execution: None,
                }],
            );
            assert_eq!(
                got, reference[i],
                "evict-then-touch drifted for pair {x}/{y} (round {round})"
            );
        }
    }
    let prom = engine.metrics().render_prometheus();
    let evictions = prom
        .lines()
        .find_map(|l| l.strip_prefix("msj_store_evictions_total "))
        .and_then(|v| v.trim().parse::<u64>().ok())
        .expect("evictions counter rendered");
    assert!(evictions > 0, "undersized budget never evicted:\n{prom}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_dataset_sections_degrade_not_wedge() {
    let a = msj::datagen::small_carto(120, 24.0, 9106);
    let b = msj::datagen::small_carto(120, 24.0, 9107);
    let requests = workload(&a);
    let cfg = config(
        Backend::RStarTraversal,
        Execution::Serial,
        FaultConfig::disabled(),
    );

    // Seed the store once, clean, and take the reference answers. The
    // join also writes the pair-raster segment the raster cases corrupt.
    let dir = tmp_store("chaos");
    let reference = {
        let engine = SpatialEngine::new(cfg)
            .with_store(StoreConfig::new(&dir))
            .expect("arm store");
        engine.register(a.clone());
        engine.register(b.clone());
        run(&engine, &requests)
    };

    let pair_file = dir.join("pair_0_1.msj");
    let pair_image = std::fs::read(&pair_file).expect("the join persisted its pair");
    let dataset_sections = [Section::Tree, Section::TrStar];
    for &seed in &seeds() {
        // --- Step-0 sections: the load detects the flip, rebuilds the
        // artifact from the resident relation, and answers identically.
        for section in dataset_sections {
            let faulty = config(
                Backend::RStarTraversal,
                Execution::Serial,
                FaultConfig::seeded(seed, FaultKind::StoreCorrupt { section }),
            );
            let engine =
                SpatialEngine::open(faulty, StoreConfig::new(&dir)).expect("corrupt load wedged");
            assert_eq!(
                run(&engine, &requests),
                reference,
                "rebuilt artifact drifted (seed {seed}, section {})",
                section.name()
            );
            let prom = engine.metrics().render_prometheus();
            assert!(
                prom.contains(&format!(
                    "msj_store_checksum_failures_total{{section=\"{}\"}} 1",
                    section.name()
                )),
                "missing checksum counter for {} (seed {seed}):\n{prom}",
                section.name()
            );
        }

        // --- Pair-raster sections: the prepare detects the flip,
        // rasterizes the pair again, runs Step 2a with the new signatures
        // and writes the segment through. A clean open then adopts that
        // segment as it is.
        for section in [Section::RasterA, Section::RasterB] {
            let faulty = config(
                Backend::RStarTraversal,
                Execution::Serial,
                FaultConfig::seeded(seed, FaultKind::StoreCorrupt { section }),
            );
            let stored = file_id(&pair_file);
            let engine = SpatialEngine::open(faulty, StoreConfig::new(&dir)).expect("open wedged");
            assert_eq!(
                run(&engine, &requests),
                reference,
                "rebuilt pair drifted (seed {seed}, section {})",
                section.name()
            );
            let prom = engine.metrics().render_prometheus();
            assert!(
                prom.contains(&format!(
                    "msj_store_checksum_failures_total{{section=\"{}\"}} 1",
                    section.name()
                )),
                "missing checksum counter for {} (seed {seed}):\n{prom}",
                section.name()
            );
            assert!(
                pair_raster_decisions(&engine) > 0,
                "the rebuilt pair must run Step 2a (seed {seed}, section {})",
                section.name()
            );
            drop(engine);
            let written = file_id(&pair_file);
            assert_ne!(written, stored, "the rebuilt pair is written through");
            assert_eq!(
                std::fs::read(&pair_file).expect("pair rewritten"),
                pair_image,
                "the rebuilt pair segment is the one it replaces"
            );

            let clean = SpatialEngine::open(cfg, StoreConfig::new(&dir)).expect("clean open");
            assert_eq!(run(&clean, &requests), reference);
            assert_no_checksum_failures(&clean.metrics().render_prometheus(), "clean reopen");
            assert!(
                pair_raster_decisions(&clean) > 0,
                "the adopted pair runs Step 2a"
            );
            assert_eq!(
                file_id(&pair_file),
                written,
                "a clean open adopts the pair segment instead of rewriting it"
            );
        }

        // --- The relation section is the one artifact with no rebuild
        // source: the open must fail with a clean error, never panic.
        let faulty = config(
            Backend::RStarTraversal,
            Execution::Serial,
            FaultConfig::seeded(
                seed,
                FaultKind::StoreCorrupt {
                    section: Section::Relation,
                },
            ),
        );
        match SpatialEngine::open(faulty, StoreConfig::new(&dir)) {
            Err(err) => assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}"),
            Ok(_) => panic!("corrupt relation section must fail the open (seed {seed})"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Rewrites the segment file `name` after `patch` has edited the manifest page
/// and the payload of the section with table tag `tag`, re-sealing the
/// section and manifest checksums so the edit passes for stored data —
/// the crafted-but-checksummed input a bit flip cannot produce. Layout
/// per `msj-store`'s module docs: 48-byte manifest head, 32-byte table
/// entries (tag, offset, length, checksum), manifest sum in the page's
/// last 8 bytes, every sum [`msj::geom::checksum`].
fn reseal_segment(
    dir: &std::path::Path,
    name: &str,
    tag: u32,
    patch: impl FnOnce(&mut [u8], &mut [u8]),
) {
    const PAGE: usize = 4096;
    let path = dir.join(name);
    let mut file = std::fs::read(&path).expect("segment exists");
    let u64_at = |buf: &[u8], at: usize| u64::from_le_bytes(buf[at..at + 8].try_into().unwrap());
    let count = u32::from_le_bytes(file[40..44].try_into().unwrap()) as usize;
    let entry = (0..count)
        .map(|i| 48 + 32 * i)
        .find(|&at| u32::from_le_bytes(file[at..at + 4].try_into().unwrap()) == tag)
        .expect("section present");
    let (offset, len) = (
        u64_at(&file, entry + 8) as usize,
        u64_at(&file, entry + 16) as usize,
    );
    let (manifest, payloads) = file.split_at_mut(PAGE);
    let section = &mut payloads[offset - PAGE..offset - PAGE + len];
    patch(manifest, section);
    let sum = msj::geom::checksum(section);
    manifest[entry + 24..entry + 32].copy_from_slice(&sum.to_le_bytes());
    let sum = msj::geom::checksum(&manifest[..PAGE - 8]);
    manifest[PAGE - 8..].copy_from_slice(&sum.to_le_bytes());
    std::fs::write(&path, &file).expect("rewrite segment");
}

/// Table tags of the relation, R*-tree and TR* sections and of the pair
/// file's first raster section.
const RELATION_TAG: u32 = 1;
const TREE_TAG: u32 = 2;
const TRSTAR_TAG: u32 = 5;
const RASTER_A_TAG: u32 = 6;

/// Seeds a store with the default pipeline and returns the directory,
/// configuration, requests and reference answers.
fn seeded_store(tag: &str) -> (PathBuf, EngineConfig, Vec<Request>, Vec<Vec<u64>>) {
    let a = msj::datagen::small_carto(120, 24.0, 9108);
    let b = msj::datagen::small_carto(120, 24.0, 9109);
    let requests = workload(&a);
    let cfg = config(
        Backend::RStarTraversal,
        Execution::Serial,
        FaultConfig::disabled(),
    );
    let dir = tmp_store(tag);
    let engine = SpatialEngine::new(cfg)
        .with_store(StoreConfig::new(&dir))
        .expect("arm store");
    engine.register(a);
    engine.register(b);
    let reference = run(&engine, &requests);
    (dir, cfg, requests, reference)
}

#[test]
fn crafted_cyclic_trstar_arena_degrades_not_hangs() {
    // A checksummed TR* section whose first root lists itself as its
    // child: the pre-v2 loader accepted it and the dual traversal then
    // looped forever. Arena layout per `msj_exact::trstar`: 32-byte
    // header, two u32 offset tables of objects + 1 entries, 40-byte
    // node records with `first` at byte 32.
    let (dir, cfg, requests, reference) = seeded_store("cyclic");
    reseal_segment(&dir, "ds_0.msj", TRSTAR_TAG, |_, arena| {
        let objects = u64::from_le_bytes(arena[8..16].try_into().unwrap()) as usize;
        let root = 32 + 8 * (objects + 1);
        let level = u16::from_le_bytes(arena[root + 36..root + 38].try_into().unwrap());
        assert!(level > 0, "object 0 must have a directory root to corrupt");
        arena[root + 32..root + 36].copy_from_slice(&0u32.to_le_bytes());
    });
    let engine = SpatialEngine::open(cfg, StoreConfig::new(&dir)).expect("crafted arena wedged");
    assert_eq!(run(&engine, &requests), reference, "rebuilt arena drifted");
    let prom = engine.metrics().render_prometheus();
    assert!(
        prom.contains("msj_store_checksum_failures_total{section=\"trstar\"} 1"),
        "the rejected arena must be counted:\n{prom}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The `msj_step0_artifact_nanos_total` reading of `artifact`: 0 while
/// every load adopted it, above 0 once one built it.
fn artifact_nanos(engine: &SpatialEngine, artifact: &str) -> u64 {
    let prom = engine.metrics().render_prometheus();
    let series = format!("msj_step0_artifact_nanos_total{{artifact=\"{artifact}\"}} ");
    let line = prom.lines().find_map(|l| l.strip_prefix(series.as_str()));
    line.expect("series rendered").parse().expect("a count")
}

/// Step-3 tests and hits of the last run of the join of datasets 0 and 1.
fn exact_counts(engine: &SpatialEngine) -> (u64, u64) {
    let (a, b) = (engine.dataset(0).unwrap(), engine.dataset(1).unwrap());
    let stats = engine
        .prepare_join(&a, &b)
        .last_stats()
        .expect("the join ran");
    (stats.exact_tests, stats.exact_hits)
}

#[test]
fn stored_trstar_arena_is_adopted_in_place() {
    // The TR* section is the arena's resident layout: an open views it
    // inside the segment's buffer instead of copying it out or building
    // it, and the arena it adopts is the one a build over the same
    // relation makes. Step 3 then runs exactly the tests the writer ran.
    let (a, b) = (
        msj::datagen::small_carto(120, 24.0, 9116),
        msj::datagen::small_carto(120, 24.0, 9117),
    );
    let requests = workload(&a);
    let cfg = config(
        Backend::RStarTraversal,
        Execution::Serial,
        FaultConfig::disabled(),
    )
    .join;
    let ExactAlgorithm::TrStar { max_entries } = cfg.exact else {
        panic!("the default exact step is TR*");
    };
    let dir = tmp_store("adopt");
    let (reference, written) = {
        let engine = SpatialEngine::new(cfg)
            .with_store(StoreConfig::new(&dir))
            .expect("arm store");
        engine.register(a.clone());
        engine.register(b.clone());
        let answers = run(&engine, &requests);
        (answers, exact_counts(&engine))
    };
    assert!(written.0 > 0 && written.1 > 0, "the join must reach Step 3");

    let opened = SpatialEngine::open(cfg, StoreConfig::new(&dir)).expect("cold start");
    assert_eq!(run(&opened, &requests), reference, "adopted arena drifted");
    assert_eq!(exact_counts(&opened), written, "Step 3 ran other tests");
    assert_eq!(
        artifact_nanos(&opened, "trstar"),
        0,
        "TR* was built, not adopted"
    );
    assert_no_checksum_failures(&opened.metrics().render_prometheus(), "clean open");
    drop(opened);

    let store = msj_store::Store::open(&dir).expect("open container");
    for (id, relation) in [(0, &a), (1, &b)] {
        let segment = store.read_dataset(id, None).expect("segment reads");
        let section = segment.shared_section(msj_store::Section::TrStar);
        let section = section.expect("written").expect("verifies");
        let arena = msj::exact::TrStarStore::adopt(section.clone()).expect("adopts");
        drop(segment); // the arena keeps the buffer alive
        assert_eq!(arena, msj::exact::TrStarStore::build(relation, max_entries));
        let trapezoids = arena.get(0).trapezoids().as_ptr().cast::<u8>();
        assert!(
            section.as_ptr_range().contains(&trapezoids),
            "ds_{id}: the arena's trapezoids are not the section's bytes"
        );
    }

    // A flipped byte in the section still fails its checksum: the arena
    // is built instead, counted once, and answers the same.
    let faulty = config(
        Backend::RStarTraversal,
        Execution::Serial,
        FaultConfig::seeded(
            seeds()[0],
            FaultKind::StoreCorrupt {
                section: Section::TrStar,
            },
        ),
    );
    let engine = SpatialEngine::open(faulty, StoreConfig::new(&dir)).expect("open wedged");
    assert_eq!(run(&engine, &requests), reference, "rebuilt arena drifted");
    assert_eq!(exact_counts(&engine), written);
    assert!(
        artifact_nanos(&engine, "trstar") > 0,
        "the corrupt arena is built"
    );
    let prom = engine.metrics().render_prometheus();
    assert!(
        prom.contains("msj_store_checksum_failures_total{section=\"trstar\"} 1"),
        "the corrupt arena must be counted once:\n{prom}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crafted_out_of_range_leaf_id_rebuilds_the_tree() {
    // A checksummed tree section whose first leaf entry names object
    // 5,000,000 of a 120-object relation. The leaf count still matches the
    // relation, so only the loader's permutation check stands between
    // that id and the per-object columns every probe indexes by it.
    // Tree image layout per `msj_sam::rstar`: a 36-byte header, then
    // eight counted columns (levels, node rects, entry offsets, the
    // entries' xmin, ymin, ymax, xmax, values); node 0 is a leaf, so its
    // first entry is the first value.
    let (dir, cfg, requests, reference) = seeded_store("leafid");
    reseal_segment(&dir, "ds_0.msj", TREE_TAG, |_, image| {
        let count = |at: usize| u64::from_le_bytes(image[at..at + 8].try_into().unwrap()) as usize;
        assert_eq!(image[44..48], 0u32.to_le_bytes(), "node 0 is a leaf");
        let mut at = 36;
        for width in [4, 8, 4, 8, 8, 8, 8] {
            at += 8 + width * count(at);
        }
        let values = count(at);
        at += 8;
        assert_eq!(
            at + 4 * values,
            image.len(),
            "the value column closes the image"
        );
        image[at..at + 4].copy_from_slice(&5_000_000u32.to_le_bytes());
    });
    let engine = SpatialEngine::open(cfg, StoreConfig::new(&dir)).expect("crafted tree wedged");
    assert_eq!(run(&engine, &requests), reference, "rebuilt tree drifted");
    let prom = engine.metrics().render_prometheus();
    assert!(
        prom.contains("msj_store_checksum_failures_total{section=\"tree\"} 1"),
        "the rejected tree must be counted:\n{prom}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crafted_relation_id_off_its_position_fails_the_open() {
    // A checksummed relation section whose second object claims id 0.
    // Every artifact is addressed by id, so the relation cannot be
    // adopted, and without it there is nothing to rebuild from. Image
    // layout per `msj_geom::object`: the counted id column comes first.
    let (dir, cfg, _, _) = seeded_store("relid");
    reseal_segment(&dir, "ds_0.msj", RELATION_TAG, |_, image| {
        assert_eq!(image[12..16], 1u32.to_le_bytes(), "object 1 has id 1");
        image[12..16].copy_from_slice(&0u32.to_le_bytes());
    });
    match SpatialEngine::open(cfg, StoreConfig::new(&dir)) {
        Err(err) => assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}"),
        Ok(_) => panic!("a relation with a misplaced id must fail the open"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The byte range of object 0's outer ring in a relation image: its
/// `(x, y)` records in the point arena. Layout per `msj_geom::object`:
/// four counted columns — ids, ring offsets, point offsets, points.
fn first_ring(image: &[u8]) -> std::ops::Range<usize> {
    let count = |at: usize| u64::from_le_bytes(image[at..at + 8].try_into().unwrap()) as usize;
    let rings_at = 8 + 4 * count(0);
    let points_at = rings_at + 8 + 4 * count(rings_at);
    let ring_end = u32::from_le_bytes(image[points_at + 12..points_at + 16].try_into().unwrap());
    let arena = points_at + 8 + 4 * count(points_at) + 8;
    arena..arena + 16 * ring_end as usize
}

#[test]
fn crafted_relation_rings_fail_the_open() {
    // Two checksummed relation sections the open's validating pass must
    // refuse exactly as a decode would: object 0's outer ring reversed
    // (clockwise), and one of its vertices NaN.
    type Patch = fn(&mut [u8]);
    let reverse: Patch = |ring| {
        let records = ring.len() / 16;
        for k in 0..records / 2 {
            for b in 0..16 {
                ring.swap(16 * k + b, 16 * (records - 1 - k) + b);
            }
        }
    };
    let nan: Patch = |ring| ring[16..24].copy_from_slice(&f64::NAN.to_le_bytes());
    for (name, patch) in [("clockwise", reverse), ("nan", nan)] {
        let (dir, cfg, _, _) = seeded_store(name);
        reseal_segment(&dir, "ds_0.msj", RELATION_TAG, |_, image| {
            let ring = first_ring(image);
            assert!(ring.len() >= 48, "object 0 has a ring");
            patch(&mut image[ring]);
        });
        match SpatialEngine::open(cfg, StoreConfig::new(&dir)) {
            Err(err) => assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{name}: {err}"),
            Ok(_) => panic!("a {name} relation ring must fail the open"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn opened_default_engine_serves_without_decoding_the_relation() {
    // Selections refine on the adopted TR* arena and the join runs over
    // the adopted tree, arena and stored pair raster: nothing reads the
    // relation, so the open's validated image is never decoded — until a
    // caller asks for the relation itself, which decodes it once, back
    // to the stored bytes.
    let (dir, cfg, requests, reference) = seeded_store("lazy");
    let engine = SpatialEngine::open(cfg, StoreConfig::new(&dir)).expect("cold start");
    let a = msj::datagen::small_carto(120, 24.0, 9108);
    let selections: Vec<Request> = a
        .iter()
        .take(16)
        .flat_map(|o| {
            let b = o.mbr();
            let window = Rect::from_bounds(b.xmin(), b.ymin(), b.center().x, b.center().y);
            [
                Request::Point {
                    dataset: 0,
                    point: b.center(),
                },
                Request::Window { dataset: 1, window },
            ]
        })
        .collect();
    assert_eq!(selections.len(), 32);
    let fresh = SpatialEngine::new(cfg);
    fresh.register(a);
    fresh.register(msj::datagen::small_carto(120, 24.0, 9109));
    assert_eq!(run(&engine, &selections), run(&fresh, &selections));
    assert_eq!(run(&engine, &requests), reference);
    assert!(
        pair_raster_decisions(&engine) > 0,
        "the stored pair raster ran"
    );
    assert_no_checksum_failures(&engine.metrics().render_prometheus(), "clean open");
    assert_eq!(
        artifact_nanos(&engine, "relation"),
        0,
        "a relation was decoded"
    );

    let store = msj_store::Store::open(&dir).expect("open container");
    let segment = store.read_dataset(0, None).expect("segment reads");
    let stored = segment.section(Section::Relation).unwrap().unwrap();
    let handle = engine.dataset(0).unwrap();
    assert_eq!(handle.relation().to_bytes(), stored, "decoded relation");
    let decoded = artifact_nanos(&engine, "relation");
    assert!(decoded > 0, "the decode is timed");
    assert_eq!(handle.relation().len(), handle.len());
    assert_eq!(
        artifact_nanos(&engine, "relation"),
        decoded,
        "decoded twice"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn version_1_segment_is_refused_with_a_typed_error() {
    // A v1 segment (TR* export columns) must not be mis-decoded as an
    // arena: hand-patch the manifest's version field back to 1 and
    // re-seal it.
    let (dir, cfg, _, _) = seeded_store("v1");
    reseal_segment(&dir, "ds_0.msj", TRSTAR_TAG, |manifest, _| {
        assert_eq!(
            manifest[8..12],
            4u32.to_le_bytes(),
            "writer stamps version 4"
        );
        manifest[8..12].copy_from_slice(&1u32.to_le_bytes());
    });
    match SpatialEngine::open(cfg, StoreConfig::new(&dir)) {
        Err(err) => {
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert!(
                err.to_string().contains("unsupported store version"),
                "{err}"
            );
        }
        Ok(_) => panic!("a version-1 segment must fail the open"),
    }
    // Re-registering rewrites the segment at the current version.
    let engine = SpatialEngine::new(cfg)
        .with_store(StoreConfig::new(&dir))
        .expect("arm store");
    engine.register(msj::datagen::small_carto(120, 24.0, 9108));
    engine.register(msj::datagen::small_carto(120, 24.0, 9109));
    drop(engine);
    SpatialEngine::open(cfg, StoreConfig::new(&dir)).expect("rewritten store opens");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn version_2_pair_segment_is_rebuilt_and_rewritten_not_degraded() {
    // A `pair_0_1.msj` left behind by a v2 writer beside current dataset
    // files: its raster sections hold one class-tagged interval list per
    // object (grid scalars, one counted offset table, one counted arena
    // of `(start, end | class << 31)` words), which a v3+ reader must not
    // try to decode as an A column followed by an F column. The manifest
    // says version 2, so the pair is a miss: signatures are rebuilt from
    // the relations, the file is rewritten at the current version, and
    // nothing is counted as corrupt.
    let (dir, cfg, requests, reference) = seeded_store("v2pair");
    let store = msj_store::Store::open(&dir).expect("open container");
    let pair = store
        .read_pair(0, 1, None)
        .unwrap()
        .expect("pair persisted");
    let v2_layout = |section| {
        let v3 = pair.section(section).unwrap().unwrap();
        let store = msj::approx::RasterStore::from_bytes(v3).expect("v3 image decodes");
        let mut image = v3[..36].to_vec(); // the grid scalars did not change
        let mut offsets = vec![0u32];
        let mut words = Vec::new();
        for id in 0..store.len() as u32 {
            // One tagged list: the FULL runs, flagged in the top bit of
            // their end, between the PARTIAL remainders of the A runs.
            let sig = store.signature(id);
            let mut full = sig.full().iter().peekable();
            for a in sig.all() {
                let mut at = a.start;
                while let Some(f) = full.next_if(|f| f.end <= a.end) {
                    if at < f.start {
                        words.extend([at, f.start]);
                    }
                    words.extend([f.start, f.end | 1 << 31]);
                    at = f.end;
                }
                if at < a.end {
                    words.extend([at, a.end]);
                }
            }
            offsets.push(words.len() as u32 / 2);
        }
        for column in [&offsets, &words] {
            image.extend((column.len() as u64).to_le_bytes());
            image.extend(column.iter().flat_map(|w| w.to_le_bytes()));
        }
        assert!(
            msj::approx::RasterStore::from_bytes(&image).is_err(),
            "a v2 image must not pass for a v3 one"
        );
        (section, image)
    };
    let (ra, rb) = (msj_store::Section::RasterA, msj_store::Section::RasterB);
    let v2_sections = [v2_layout(ra), v2_layout(rb)];
    let v2_lengths = v2_sections.clone().map(|(_, image)| image.len());
    store
        .write_pair(0, 1, pair.config_tag, &v2_sections)
        .expect("write the v2 payloads");
    reseal_segment(&dir, "pair_0_1.msj", RASTER_A_TAG, |manifest, _| {
        manifest[8..12].copy_from_slice(&2u32.to_le_bytes());
    });
    assert!(
        store.read_pair(0, 1, None).is_err(),
        "the v2 pair file must be refused as a file"
    );

    let engine = SpatialEngine::open(cfg, StoreConfig::new(&dir)).expect("open wedged");
    assert_eq!(run(&engine, &requests), reference, "join digest drifted");
    let prom = engine.metrics().render_prometheus();
    assert_no_checksum_failures(&prom, "a version miss is not a corruption");
    let rewritten = store
        .read_pair(0, 1, None)
        .expect("rewritten at the current version")
        .expect("pair persisted again");
    for (section, v2_len) in [ra, rb].into_iter().zip(v2_lengths) {
        let image = rewritten.section(section).unwrap().unwrap();
        assert_eq!(image, pair.section(section).unwrap().unwrap());
        assert!(image.len() < v2_len, "the A/F image is the smaller one");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The default plan's configuration tag before nodes stored their
/// entries in sweep order only, as that commit wrote it.
const PREVIOUS_TREE_IMAGE_TAG: u64 = 0x159e_dd29_a8b2_d689;

/// A tree section in the layout written under [`PREVIOUS_TREE_IMAGE_TAG`]:
/// the same header, levels, node rectangles and offsets, then one counted
/// column of entry rectangles (xmin, ymin, xmax, ymax each) and the
/// values — five columns where the current image has eight.
fn previous_tree_image(image: &[u8]) -> Vec<u8> {
    let count = |at: usize| u64::from_le_bytes(image[at..at + 8].try_into().unwrap()) as usize;
    let mut at = 36;
    for width in [4, 8, 4] {
        at += 8 + width * count(at);
    }
    let mut old = image[..at].to_vec();
    let entries = count(at);
    let column = |c: usize| at + c * (8 + 8 * entries) + 8;
    let scalar = |c: usize, k: usize| &image[column(c) + 8 * k..column(c) + 8 * k + 8];
    old.extend((4 * entries as u64).to_le_bytes());
    for k in 0..entries {
        for c in [0, 1, 3, 2] {
            old.extend(scalar(c, k));
        }
    }
    old.extend(&image[column(4) - 8..]);
    old
}

#[test]
fn segment_of_the_previous_tree_image_is_rebuilt_not_counted_corrupt() {
    // Dataset and pair files as the commit before this tree image wrote
    // them: its tag, its five-column tree section, everything else as
    // now. The tag misses, so the open rebuilds every artifact once,
    // answers like a fresh engine, counts nothing as corrupt and writes
    // the current image back; the next open adopts it.
    let (dir, cfg, requests, reference) = seeded_store("prevtree");
    let store = msj_store::Store::open(&dir).expect("open container");
    let current = [0, 1].map(|id| store.read_dataset(id, None).expect("segment reads"));
    assert!(current
        .iter()
        .all(|s| s.config_tag != PREVIOUS_TREE_IMAGE_TAG));
    // Read before the dataset writes below retire it.
    let pair = store
        .read_pair(0, 1, None)
        .unwrap()
        .expect("pair persisted");
    for (id, segment) in (0..).zip(&current) {
        let sections: Vec<(Section, Vec<u8>)> = DATASET_SECTIONS
            .iter()
            .map(|&section| {
                let image = segment.section(section).unwrap().unwrap();
                let image = match section {
                    Section::Tree => previous_tree_image(image),
                    _ => image.to_vec(),
                };
                (section, image)
            })
            .collect();
        let old_tree = &sections[1].1;
        assert_eq!(
            old_tree.len() + 24,
            segment.section(Section::Tree).unwrap().unwrap().len()
        );
        assert!(
            msj::sam::RStarTree::from_bytes(old_tree).is_err(),
            "the previous layout must not pass for the current one"
        );
        store
            .write_dataset(id, PREVIOUS_TREE_IMAGE_TAG, &sections)
            .expect("write the previous segment");
    }
    let (ra, rb) = (Section::RasterA, Section::RasterB);
    let raster = |s| (s, pair.section(s).unwrap().unwrap().to_vec());
    store
        .write_pair(0, 1, PREVIOUS_TREE_IMAGE_TAG, &[raster(ra), raster(rb)])
        .expect("write the previous pair");

    let first = SpatialEngine::open(cfg, StoreConfig::new(&dir)).expect("first open");
    assert_eq!(run(&first, &requests), reference, "answers moved");
    let prom = first.metrics().render_prometheus();
    assert_no_checksum_failures(&prom, "a tag miss is not a fault");
    assert!(artifact_nanos(&first, "tree") > 0, "tree not rebuilt");
    drop(first);
    for (id, segment) in (0..).zip(&current) {
        let rewritten = store.read_dataset(id, None).expect("segment reads");
        assert_eq!(rewritten.config_tag, segment.config_tag, "ds_{id}");
        for section in DATASET_SECTIONS {
            let image = |s: &msj_store::Segment| s.section(section).unwrap().unwrap().to_vec();
            assert_eq!(image(&rewritten), image(segment), "ds_{id} {section:?}");
        }
    }

    let second = SpatialEngine::open(cfg, StoreConfig::new(&dir)).expect("second open");
    assert_eq!(run(&second, &requests), reference);
    assert_no_checksum_failures(&second.metrics().render_prometheus(), "clean open");
    assert_eq!(artifact_nanos(&second, "tree"), 0, "tree rebuilt again");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn store_written_at_the_papers_capacity_is_refreshed_under_the_default() {
    // `ExactAlgorithm::TrStar { max_entries }` is part of the config tag:
    // a directory written by `JoinConfig::version3()` (M = 3, the default
    // before PR 22) is a tag miss for today's default, not a corruption.
    let (a, b) = (
        msj::datagen::small_carto(120, 24.0, 9114),
        msj::datagen::small_carto(120, 24.0, 9115),
    );
    let requests = workload(&a);
    let cfg = config(
        Backend::RStarTraversal,
        Execution::Serial,
        FaultConfig::disabled(),
    )
    .join;
    let paper = cfg.to_builder().exact(JoinConfig::version3().exact).build();
    assert_ne!(paper.exact, cfg.exact, "the default carries the paper's M");
    let dir = tmp_store("capacity");
    let reference = {
        let engine = SpatialEngine::new(paper)
            .with_store(StoreConfig::new(&dir))
            .expect("arm store");
        engine.register(a);
        engine.register(b);
        run(&engine, &requests)
    };
    let store = msj_store::Store::open(&dir).expect("open container");
    let trstar_image = |id| {
        let segment = store.read_dataset(id, None).expect("segment reads");
        let image = segment.section(msj_store::Section::TrStar);
        (segment.config_tag, image.unwrap().unwrap().to_vec())
    };
    let written = [trstar_image(0), trstar_image(1)];

    let trstar_nanos = |engine: &SpatialEngine| {
        let prom = engine.metrics().render_prometheus();
        assert_no_checksum_failures(&prom, "a tag miss is not a fault");
        let series = "msj_step0_artifact_nanos_total{artifact=\"trstar\"} ";
        let line = prom.lines().find_map(|l| l.strip_prefix(series));
        line.expect("series rendered").parse::<u64>().unwrap()
    };
    let first = SpatialEngine::open(cfg, StoreConfig::new(&dir)).expect("first open");
    assert_eq!(run(&first, &requests), reference, "answers moved with M");
    assert!(trstar_nanos(&first) > 0, "TR* is rebuilt on a tag miss");
    drop(first);
    for (id, (old_tag, old_image)) in (0..).zip(&written) {
        let (tag, image) = trstar_image(id);
        assert_ne!(tag, *old_tag, "ds_{id} keeps the old tag");
        let arena = msj::exact::TrStarStore::from_bytes(&image).expect("refreshed arena");
        assert_eq!(
            ExactAlgorithm::TrStar {
                max_entries: arena.max_entries()
            },
            cfg.exact
        );
        assert!(image.len() < old_image.len(), "wider nodes, fewer of them");
    }

    let second = SpatialEngine::open(cfg, StoreConfig::new(&dir)).expect("second open");
    assert_eq!(run(&second, &requests), reference);
    assert_eq!(trstar_nanos(&second), 0, "the refreshed section is adopted");
    std::fs::remove_dir_all(&dir).ok();
}

/// The configuration tags the commit before the engine refused §5's
/// approximation plans stamped, as that commit wrote them: the default
/// plan with 5-corner and MER, with MER alone, and on the grid backend
/// (whose segments held no tree, and whose backend slot read 2).
const PARENT_FIVE_CORNER_AND_MER_TAG: u64 = 0xaf42_65db_6a06_bd68;
const PARENT_MER_TAG: u64 = 0xfb4a_f120_3ca8_4e2e;
const PARENT_GRID_TAG: u64 = 0x2dcd_734a_f623_5267;

#[test]
fn store_written_with_five_corner_opens_under_the_default() {
    // A plan that ran 5-C (and MER, as the default did then) stored the
    // default's sections, but its R*-tree leaves kept room for both
    // approximations: 39 entries per 4 KB page instead of 64. The tag
    // misses, so the default rebuilds and refreshes it once.
    let cfg = config(
        Backend::RStarTraversal,
        Execution::Serial,
        FaultConfig::disabled(),
    );
    let paper = (cfg.join.to_builder())
        .conservative(ConservativeKind::FiveCorner)
        .progressive(ProgressiveKind::Mer)
        .build();
    let extra = paper.extra_leaf_bytes();
    let layout = msj::sam::PageLayout::with_extra_bytes(cfg.join.page_size, extra);
    parent_directory_opens(
        cfg,
        PARENT_FIVE_CORNER_AND_MER_TAG,
        9118,
        |rel, section, image| match section {
            Section::Tree => {
                let items = rel.iter().map(|o| (o.mbr(), o.id));
                let tree = msj::sam::RStarTree::bulk_load(layout, items);
                assert_eq!(tree.layout().max_leaf_entries(), 39);
                Some(tree.to_bytes())
            }
            _ => Some(image.to_vec()),
        },
    );
}

#[test]
fn store_written_with_mer_opens_under_the_default() {
    // A directory written under the default that ran a MER holds the
    // default's bytes under another tag: a tag miss, not a corruption.
    let cfg = config(
        Backend::RStarTraversal,
        Execution::Serial,
        FaultConfig::disabled(),
    );
    parent_directory_opens(cfg, PARENT_MER_TAG, 9120, |_, _, image| {
        Some(image.to_vec())
    });
}

#[test]
fn store_written_on_the_grid_backend_opens_and_adopts_the_tree() {
    // The grid backend stored no R*-tree while selections probed a grid
    // of their own; now every dataset has its tree. A directory it wrote
    // opens, answers as a fresh engine does, is refreshed once with the
    // tree, and the next open adopts it.
    let cfg = config(
        Backend::PartitionedSweep {
            tiles_per_axis: 6,
            threads: 0,
        },
        Execution::Serial,
        FaultConfig::disabled(),
    );
    parent_directory_opens(cfg, PARENT_GRID_TAG, 9124, |_, section, image| {
        (section != Section::Tree).then(|| image.to_vec())
    });
}

/// The sections a dataset segment holds, in tag order.
fn stored_sections(segment: &msj_store::Segment) -> Vec<Section> {
    let written = |&s: &Section| segment.section(s).is_some();
    Section::ALL.into_iter().filter(written).collect()
}

/// What every dataset segment holds, on either backend.
const DATASET_SECTIONS: [Section; 3] = [Section::Relation, Section::Tree, Section::TrStar];

/// A directory as an older writer left it opens under `cfg`: each
/// dataset is rebuilt once, answers and Step-3 counts equal a fresh
/// engine's, and its segment is written back as `cfg` writes it, the
/// stored relation image as it was. From then on every section is
/// adopted, and the R*-tree's join leaves the relation undecoded.
///
/// The older directory is `cfg`'s own, with every segment re-stamped
/// `old_tag` and each dataset section replaced by what `old_section`
/// makes of it (`None` leaves it out).
fn parent_directory_opens(
    cfg: EngineConfig,
    old_tag: u64,
    seed: u64,
    old_section: impl Fn(&Relation, Section, &[u8]) -> Option<Vec<u8>>,
) {
    let (a, b) = (
        msj::datagen::small_carto(120, 24.0, seed),
        msj::datagen::small_carto(120, 24.0, seed + 1),
    );
    let requests = workload(&a);
    let dir = tmp_store("parent-plan");
    let (reference, tests_and_hits) = {
        let fresh = SpatialEngine::new(cfg)
            .with_store(StoreConfig::new(&dir))
            .expect("arm store");
        fresh.register(a.clone());
        fresh.register(b.clone());
        (run(&fresh, &requests), exact_counts(&fresh))
    };
    let store = msj_store::Store::open(&dir).expect("open container");
    let segment = |id| store.read_dataset(id, None).expect("segment reads");
    let image = |segment: &msj_store::Segment, section| {
        let image = segment.section(section).unwrap().unwrap();
        image.to_vec()
    };
    let current = [0, 1].map(segment);
    // Read before the dataset writes below retire them. A self-join's
    // pair holds `RasterA` alone; an older writer stored that one raster
    // as both sides.
    let pairs = [(0, 1), (0, 0)].map(|(x, y)| {
        let pair = store
            .read_pair(x, y, None)
            .unwrap()
            .expect("pair persisted");
        let side_b = if x == y {
            Section::RasterA
        } else {
            Section::RasterB
        };
        (
            (x, y),
            [
                (Section::RasterA, image(&pair, Section::RasterA)),
                (Section::RasterB, image(&pair, side_b)),
            ],
        )
    });
    for (id, (segment, rel)) in (0..).zip(current.iter().zip([&a, &b])) {
        assert_eq!(stored_sections(segment), DATASET_SECTIONS, "ds_{id}");
        assert_ne!(segment.config_tag, old_tag, "ds_{id}");
        let sections: Vec<(Section, Vec<u8>)> = DATASET_SECTIONS
            .iter()
            .filter_map(|&s| Some((s, old_section(rel, s, &image(segment, s))?)))
            .collect();
        store
            .write_dataset(id, old_tag, &sections)
            .expect("write the older segment");
    }
    for ((x, y), sections) in &pairs {
        store
            .write_pair(*x, *y, old_tag, sections)
            .expect("write the older pair");
    }

    let first = SpatialEngine::open(cfg, StoreConfig::new(&dir)).expect("first open");
    assert_eq!(
        run(&first, &requests),
        reference,
        "answers moved with the plan"
    );
    assert_eq!(exact_counts(&first), tests_and_hits);
    assert_no_checksum_failures(
        &first.metrics().render_prometheus(),
        "a tag miss is not a fault",
    );
    for artifact in ["tree", "trstar"] {
        assert!(
            artifact_nanos(&first, artifact) > 0,
            "{artifact} not rebuilt"
        );
    }
    drop(first);
    for (id, written) in (0..).zip(&current) {
        let refreshed = segment(id);
        assert_eq!(refreshed.config_tag, written.config_tag, "ds_{id}");
        for section in DATASET_SECTIONS {
            let (now, then) = (image(&refreshed, section), image(written, section));
            assert_eq!(now, then, "ds_{id} {section:?}");
        }
    }
    for ((x, y), sections) in &pairs {
        let pair = store
            .read_pair(*x, *y, None)
            .unwrap()
            .expect("pair rewritten");
        assert_eq!(pair.config_tag, current[0].config_tag, "pair_{x}_{y}");
        let rasters = if x == y { 1 } else { 2 };
        assert_eq!(
            stored_sections(&pair),
            [Section::RasterA, Section::RasterB][..rasters],
            "pair_{x}_{y}"
        );
        for (section, old_image) in &sections[..rasters] {
            assert_eq!(
                &image(&pair, *section),
                old_image,
                "pair_{x}_{y} {section:?}"
            );
        }
    }

    let second = SpatialEngine::open(cfg, StoreConfig::new(&dir)).expect("second open");
    assert_eq!(run(&second, &requests), reference);
    assert_eq!(exact_counts(&second), tests_and_hits);
    assert_no_checksum_failures(&second.metrics().render_prometheus(), "clean open");
    // The grid joins on MBRs it collects from the relation, so only the
    // R*-tree's join serves without decoding it.
    let undecoded = (cfg.join.backend == Backend::RStarTraversal).then_some("relation");
    for artifact in ["tree", "trstar"].into_iter().chain(undecoded) {
        assert_eq!(
            artifact_nanos(&second, artifact),
            0,
            "the refreshed {artifact} section is adopted"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reused_store_directory_does_not_serve_the_previous_pair() {
    // Engine A leaves `pair_0_1.msj` behind; engine B re-registers other
    // relations under the same ids. Adopting A's raster signatures for
    // B's datasets drops true results (276 pairs of 300 before the store
    // retired a dataset's pair files on rewrite).
    let dir = tmp_store("reuse");
    let cfg = JoinConfig::default();
    {
        let engine = SpatialEngine::new(cfg)
            .with_store(StoreConfig::new(&dir))
            .expect("arm store");
        let a = engine.register(msj::datagen::small_carto(64, 24.0, 1));
        let b = engine.register(msj::datagen::small_carto(64, 24.0, 2));
        assert!(!engine.prepare_join(&a, &b).run().pairs.is_empty());
    }
    let (a, b) = (
        msj::datagen::small_carto(64, 24.0, 101),
        msj::datagen::small_carto(64, 24.0, 102),
    );
    let truth = msj::core::ground_truth_join(&a, &b);
    let engine = SpatialEngine::new(cfg)
        .with_store(StoreConfig::new(&dir))
        .expect("arm store");
    let (ha, hb) = (engine.register(a), engine.register(b));
    let mut got = engine.prepare_join(&ha, &hb).run().pairs;
    got.sort_unstable();
    assert_eq!(got, truth, "a stale pair segment was adopted");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn section_of_another_length_is_rebuilt_not_adopted() {
    // A checksum-valid, well-formed section that describes a different
    // number of objects than the relation it sits next to: ds_0's
    // artifact sections are replaced, one at a time, by ds_1's. Adopting
    // one would index out of bounds at query time.
    let a = msj::datagen::small_carto(120, 24.0, 9110);
    let b = msj::datagen::small_carto(90, 24.0, 9111);
    let requests = workload(&a);
    let cfg = config(
        Backend::RStarTraversal,
        Execution::Serial,
        FaultConfig::disabled(),
    );
    let dir = tmp_store("length");
    let reference = {
        let engine = SpatialEngine::new(cfg)
            .with_store(StoreConfig::new(&dir))
            .expect("arm store");
        engine.register(a);
        engine.register(b);
        run(&engine, &requests)
    };
    let store = msj_store::Store::open(&dir).expect("open container");
    let sections_of = |id| {
        let segment = store.read_dataset(id, None).expect("segment reads");
        let sections: Vec<(msj_store::Section, Vec<u8>)> = msj_store::Section::ALL
            .into_iter()
            .filter_map(|s| Some((s, segment.section(s)?.expect("verifies").to_vec())))
            .collect();
        (segment.config_tag, sections)
    };
    let (tag, original) = sections_of(0);
    let (_, donor) = sections_of(1);
    for (i, (section, _)) in original.iter().enumerate().skip(1) {
        let mut crafted = original.clone();
        crafted[i] = donor[i].clone();
        store.write_dataset(0, tag, &crafted).expect("rewrite ds_0");
        let engine = SpatialEngine::open(cfg, StoreConfig::new(&dir)).expect("open wedged");
        assert_eq!(
            run(&engine, &requests),
            reference,
            "answers drifted with a transplanted {} section",
            section.name()
        );
        let prom = engine.metrics().render_prometheus();
        assert!(
            prom.contains(&format!(
                "msj_store_checksum_failures_total{{section=\"{}\"}} 1",
                section.name()
            )),
            "the transplanted {} section must be counted:\n{prom}",
            section.name()
        );
    }

    // The same for the pair file: its two sides swapped, each signature
    // set well-formed but as long as the *other* relation. Both sides are
    // counted and the pair is rasterized again, like one with a corrupt
    // raster section.
    store
        .write_dataset(0, tag, &original)
        .expect("restore ds_0");
    let rebuilt = SpatialEngine::open(cfg, StoreConfig::new(&dir)).expect("clean open");
    assert_eq!(run(&rebuilt, &requests), reference); // writes pair_0_1 again
    let pair = store
        .read_pair(0, 1, None)
        .unwrap()
        .expect("pair persisted");
    let side = |s| pair.section(s).unwrap().unwrap().to_vec();
    let (ra, rb) = (msj_store::Section::RasterA, msj_store::Section::RasterB);
    store
        .write_pair(0, 1, pair.config_tag, &[(ra, side(rb)), (rb, side(ra))])
        .expect("rewrite pair_0_1");
    let engine = SpatialEngine::open(cfg, StoreConfig::new(&dir)).expect("open wedged");
    assert_eq!(run(&engine, &requests), reference, "swapped raster sides");
    let prom = engine.metrics().render_prometheus();
    for section in [ra, rb] {
        assert!(prom.contains(&format!(
            "msj_store_checksum_failures_total{{section=\"{}\"}} 1",
            section.name()
        )));
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Every file in `dir` by name, with its bytes.
fn store_files(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("store directory")
        .map(|entry| {
            let path = entry.expect("entry").path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).expect("read segment"))
        })
        .collect();
    files.sort();
    files
}

#[test]
fn a_store_corrupt_fault_leaves_every_segment_file_as_it_was() {
    let (dir, cfg, requests, reference) = seeded_store("fault-on-disk");
    let files = store_files(&dir);
    assert!(files.iter().any(|(name, _)| name == "pair_0_1.msj"));
    let seed = seeds()[0];
    for section in Section::ALL {
        let faulty = EngineConfig {
            fault: FaultConfig::seeded(seed, FaultKind::StoreCorrupt { section }),
            ..cfg
        };
        match SpatialEngine::open(faulty, StoreConfig::new(&dir)) {
            // The one section with no rebuild source fails the open.
            Err(err) => {
                assert_eq!(section, Section::Relation, "{err}");
                assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
            }
            Ok(engine) => {
                assert_ne!(section, Section::Relation, "a corrupt relation opened");
                assert_eq!(run(&engine, &requests), reference, "{}", section.name());
                let prom = engine.metrics().render_prometheus();
                let counted = format!(
                    "msj_store_checksum_failures_total{{section=\"{}\"}} 1",
                    section.name()
                );
                assert!(prom.contains(&counted), "{counted} missing:\n{prom}");
                // The flipped page is the load's own, while it is mapped.
                assert_eq!(store_files(&dir), files, "{} fault", section.name());
            }
        }
        assert_eq!(store_files(&dir), files, "{} fault", section.name());
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_opened_engine_answers_after_its_store_directory_is_removed() {
    let (dir, cfg, requests, reference) = seeded_store("removed");
    let engine = SpatialEngine::open(cfg, StoreConfig::new(&dir)).expect("cold start");
    std::fs::remove_dir_all(&dir).expect("remove the store");
    // The relation is decoded from its mapping only now, after its file
    // is gone; the pair, never read, is rasterized again and its write
    // fails quietly.
    assert_eq!(run(&engine, &requests), reference);
    assert_no_checksum_failures(&engine.metrics().render_prometheus(), "removed store");
}

#[test]
fn an_opened_engine_answers_after_its_segment_is_replaced_by_a_rename() {
    let (dir, cfg, requests, reference) = seeded_store("renamed");
    let engine = SpatialEngine::open(cfg, StoreConfig::new(&dir)).expect("cold start");
    // Another valid segment for dataset 0, written where the store writes
    // (a temp file renamed over the segment), as a re-register would.
    let donor = tmp_store("renamed-donor");
    let other = SpatialEngine::new(cfg)
        .with_store(StoreConfig::new(&donor))
        .expect("arm store");
    other.register(msj::datagen::small_carto(150, 24.0, 9112));
    drop(other);
    let segment = dir.join("ds_0.msj");
    let stored = file_id(&segment);
    let tmp = dir.join("ds_0.msj.tmp");
    std::fs::copy(donor.join("ds_0.msj"), &tmp).expect("copy donor");
    std::fs::rename(&tmp, &segment).expect("rename over ds_0");
    assert_ne!(file_id(&segment), stored, "a new inode holds the name");
    assert_eq!(run(&engine, &requests), reference, "the opened engine");
    assert_no_checksum_failures(&engine.metrics().render_prometheus(), "replaced");
    // A fresh open reads the new segment.
    let fresh = SpatialEngine::open(cfg, StoreConfig::new(&dir)).expect("open the new file");
    assert_eq!(fresh.dataset(0).unwrap().len(), 150);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&donor).ok();
}

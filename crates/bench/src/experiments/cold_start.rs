//! The `cold-start` experiment: loading persisted page-aligned Step-0
//! segments versus rebuilding Step 0 from the raw relations.
//!
//! The engine registers the skewed cartographic workload through an
//! armed [`StoreConfig`] (write-through), is dropped, and is then
//! reopened with [`SpatialEngine::open`] — the cold start that adopts
//! R*-tree arenas, approximation columns, TR* arenas and pair raster
//! signatures from their checksummed segment files (each artifact's own
//! validating `from_bytes`, no re-derivation). The report prints rebuild vs
//! load wall-clock per section (rebuild also per object — the Step-0
//! cost of each artifact), the segment file sizes, and the dataset-level
//! ratios; every replayed request's response is asserted byte-identical
//! between the rebuilt and the reloaded engine.
//!
//! The guard prices the store against what a store can be at best, not
//! against the rebuild it replaces: reading the same segment files and
//! checksumming them (`read` + `fnv1a64`) is the floor under any cold
//! open, and the open must stay within `OPEN_OVER_FLOOR_MAX` (3) × that
//! floor, both measured in this run. (A guard against rebuild time fails
//! whenever Step 0 itself gets cheaper.) The rebuild ratio is printed
//! as information.

use super::ExpConfig;
use crate::report::{f, section, Table};
use msj_approx::{ConservativeStore, ProgressiveStore};
use msj_core::{JoinConfig, Request, Response, SpatialEngine, StoreConfig};
use msj_exact::{ExactAlgorithm, TrStarStore};
use msj_geom::Relation;
use msj_sam::{PageLayout, RStarTree};
use msj_store::{Section, Store};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Replayed request count per engine (join + the selection probes).
const PROBES: usize = 4;

/// How many read-and-checksum floors a cold open may cost. The
/// repository benchmark's `store.open_over_floor_ratio` sits at
/// 1.6–1.7; 3 leaves head-room for a noisy box and still fails an open
/// that starts re-deriving what it should load.
const OPEN_OVER_FLOOR_MAX: f64 = 3.0;

/// The guard only binds when the floor is above timer noise.
const GUARD_FLOOR_MILLIS: f64 = 1.0;

/// Cold opens and floor passes timed; each side reports its fastest.
const OPEN_REPS: usize = 3;

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

fn tmp_store(seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!(
        "msj-bench-coldstart-{}-{}-{}",
        std::process::id(),
        seed,
        DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

/// One row of the per-section breakdown (dataset 0's segment file).
pub(crate) struct SectionRow {
    pub name: &'static str,
    pub bytes: u64,
    /// `None` for the relation section — it has no rebuild path (it *is*
    /// the source the other sections rebuild from).
    pub rebuild_millis: Option<f64>,
    pub load_millis: f64,
}

/// The measurement shared by the report and the machine-readable bench.
pub(crate) struct ColdStart {
    pub objects: usize,
    /// Pure Step-0 rebuild per dataset (no store attached).
    pub rebuild_millis: [f64; 2],
    /// [`SpatialEngine::open`] wall-clock for both datasets.
    pub open_millis: f64,
    /// Reading and checksumming the same segment files.
    pub floor_millis: f64,
    pub open_over_floor: f64,
    /// Rebuild over cold open (information only).
    pub speedup: f64,
    pub store_bytes: [u64; 2],
    pub sections: Vec<SectionRow>,
    pub digest_equal: bool,
    pub guard_enforced: bool,
}

fn payloads(engine: &SpatialEngine, requests: &[Request]) -> Vec<Vec<u64>> {
    engine
        .submit_batch(requests.iter().cloned())
        .into_iter()
        .map(|r| match r.expect("cold-start request failed") {
            Response::Join(join) => join
                .pairs
                .into_iter()
                .map(|(x, y)| (u64::from(x) << 32) | u64::from(y))
                .collect(),
            Response::Selection(sel) => sel.ids.into_iter().map(u64::from).collect(),
        })
        .collect()
}

pub(crate) fn measure_cold_start(cfg: &ExpConfig) -> ColdStart {
    let n = cfg.large_count() / 2;
    let a = std::sync::Arc::new(msj_datagen::skewed_carto(n, 24.0, cfg.seed));
    let b = std::sync::Arc::new(msj_datagen::skewed_carto(n, 24.0, cfg.seed + 1));
    let config = JoinConfig::default();

    let (points, windows) = super::serving::serving_queries(&a, PROBES);
    let mut requests = vec![Request::Join {
        a: 0,
        b: 1,
        execution: None,
    }];
    for (p, w) in points.iter().zip(&windows) {
        requests.push(Request::Point {
            dataset: 0,
            point: *p,
        });
        requests.push(Request::Window {
            dataset: 1,
            window: *w,
        });
    }

    // Rebuild baseline: pure Step 0, no store attached.
    let plain = SpatialEngine::new(config);
    let t = Instant::now();
    plain.register(a.clone());
    let r0 = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    plain.register(b.clone());
    let r1 = t.elapsed().as_secs_f64() * 1e3;
    let reference = payloads(&plain, &requests);
    drop(plain);

    // Write-through: persist every artifact (the join also writes the
    // pair raster segment), then drop the engine.
    let dir = tmp_store(cfg.seed);
    let store_bytes = {
        let writer = SpatialEngine::new(config)
            .with_store(StoreConfig::new(&dir))
            .expect("arm store");
        writer.register(a.clone());
        writer.register(b.clone());
        let warmed = payloads(&writer, &requests);
        assert_eq!(warmed, reference, "write-through engine diverged");
        let store = Store::open(&dir).expect("reopen store");
        [
            store.dataset_bytes(0).expect("ds_0 persisted"),
            store.dataset_bytes(1).expect("ds_1 persisted"),
        ]
    };

    // Cold start: segments → resident engine, zero re-parse.
    let mut open_millis = f64::INFINITY;
    let mut digest_equal = true;
    for _ in 0..OPEN_REPS {
        let t = Instant::now();
        let reopened = SpatialEngine::open(config, StoreConfig::new(&dir)).expect("cold start");
        open_millis = open_millis.min(t.elapsed().as_secs_f64() * 1e3);
        digest_equal &= payloads(&reopened, &requests) == reference;
    }
    assert!(digest_equal, "cold start diverged from the rebuilt engine");
    let floor_millis = (0..OPEN_REPS)
        .map(|_| time_millis(|| read_and_checksum(&dir)))
        .fold(f64::INFINITY, f64::min);

    // Per-section breakdown on dataset 0, one contract for every row:
    // load = checksum the section's bytes + the artifact's validating
    // `from_bytes` over them (what a cold open does after the file
    // read); rebuild = that artifact's Step-0 build from the relation.
    let segment = Store::open(&dir)
        .and_then(|store| store.read_dataset(0, None))
        .expect("read ds_0");
    let mut sections = Vec::new();
    let mut row = |section: Section, rebuild: Option<&dyn Fn()>, adopts: &dyn Fn(&[u8]) -> bool| {
        let Some(stored) = segment.section(section) else {
            return;
        };
        let bytes = stored.expect("stored section verifies");
        sections.push(SectionRow {
            name: section.name(),
            bytes: bytes.len() as u64,
            rebuild_millis: rebuild.map(time_millis),
            load_millis: time_millis(|| {
                std::hint::black_box(msj_geom::fnv1a64(bytes));
                assert!(adopts(bytes), "stored {} section decodes", section.name());
            }),
        });
    };
    // The relation has no rebuild path: it *is* the source the other
    // sections rebuild from.
    row(Section::Relation, None, &|b| {
        Relation::from_bytes(b).is_ok()
    });
    let layout = PageLayout::with_extra_bytes(config.page_size, config.extra_leaf_bytes());
    row(
        Section::Tree,
        Some(&|| {
            drop(RStarTree::bulk_load(
                layout,
                a.iter().map(|o| (o.mbr(), o.id)),
            ));
        }),
        &|b| RStarTree::from_bytes(b).is_ok(),
    );
    if let Some(kind) = config.conservative {
        row(
            Section::Conservative,
            Some(&|| drop(ConservativeStore::build(kind, &a))),
            &|b| ConservativeStore::from_bytes(b).is_ok(),
        );
    }
    if let Some(kind) = config.progressive {
        row(
            Section::Progressive,
            Some(&|| drop(ProgressiveStore::build(kind, &a))),
            &|b| ProgressiveStore::from_bytes(b).is_ok(),
        );
    }
    if let ExactAlgorithm::TrStar { max_entries } = config.exact {
        row(
            Section::TrStar,
            Some(&|| drop(TrStarStore::build(&a, max_entries))),
            &|b| TrStarStore::from_bytes(b).is_ok(),
        );
    }
    std::fs::remove_dir_all(&dir).ok();

    let open_over_floor = open_millis / floor_millis.max(1e-9);
    let guard_enforced = floor_millis >= GUARD_FLOOR_MILLIS;
    if guard_enforced {
        assert!(
            open_over_floor <= OPEN_OVER_FLOOR_MAX,
            "cold open must stay within {OPEN_OVER_FLOOR_MAX}x of reading and checksumming \
             its files: open {open_millis:.1} ms, floor {floor_millis:.1} ms \
             ({open_over_floor:.2}x)"
        );
    }
    ColdStart {
        objects: n,
        rebuild_millis: [r0, r1],
        open_millis,
        floor_millis,
        open_over_floor,
        speedup: (r0 + r1) / open_millis.max(1e-9),
        store_bytes,
        sections,
        digest_equal,
        guard_enforced,
    }
}

fn time_millis(run: impl FnOnce()) -> f64 {
    let t = Instant::now();
    run();
    t.elapsed().as_secs_f64() * 1e3
}

/// Reads every file under `dir` and checksums it — all a cold open
/// would have to do if the files were the resident layout.
fn read_and_checksum(dir: &Path) {
    for entry in std::fs::read_dir(dir).expect("list store dir").flatten() {
        let path = entry.path();
        if path.is_dir() {
            read_and_checksum(&path);
        } else {
            let bytes = std::fs::read(&path).expect("read segment file");
            std::hint::black_box(msj_geom::fnv1a64(&bytes));
        }
    }
}

pub fn cold_start(cfg: &ExpConfig) -> String {
    let m = measure_cold_start(cfg);
    let mut out = section(
        "cold-start",
        "persistent store: segment load vs Step-0 rebuild",
    );
    out.push_str(&format!(
        "workload: skewed_carto {} x {} objects; page-aligned checksummed segments;\n\
         every replayed request byte-identical between rebuilt and reloaded engines\n\n",
        m.objects, m.objects,
    ));

    let mut table = Table::new([
        "section (ds 0)",
        "bytes",
        "rebuild ms",
        "rebuild us/object",
        "load ms",
        "speedup x",
    ]);
    for row in &m.sections {
        table.row([
            row.name.into(),
            row.bytes.to_string(),
            row.rebuild_millis.map_or("-".into(), |v| f(v, 2)),
            row.rebuild_millis
                .map_or("-".into(), |v| f(v * 1e3 / m.objects.max(1) as f64, 2)),
            f(row.load_millis, 2),
            row.rebuild_millis
                .map_or("-".into(), |v| f(v / row.load_millis.max(1e-9), 1)),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "load ms: checksum + the artifact's validating from_bytes over the section bytes\n",
    );

    out.push_str(&format!(
        "\nstore files: ds_0 {} B, ds_1 {} B (4096-B pages, FNV-checksummed sections)\n\
         rebuild (register): {} + {} ms; cold open (both datasets): {} ms;\n\
         read + checksum of the same files: {} ms (fastest of {} each)\n\
         cold open over floor: {}x  [<= {}x guard {}]\n\
         cold-start speedup over rebuild: {}x  [information]\n\
         digest agreement: {}\n",
        m.store_bytes[0],
        m.store_bytes[1],
        f(m.rebuild_millis[0], 1),
        f(m.rebuild_millis[1], 1),
        f(m.open_millis, 1),
        f(m.floor_millis, 1),
        OPEN_REPS,
        f(m.open_over_floor, 2),
        f(OPEN_OVER_FLOOR_MAX, 0),
        if m.guard_enforced {
            "enforced"
        } else {
            "reported only (floor under timer noise)"
        },
        f(m.speedup, 1),
        if m.digest_equal {
            "identical"
        } else {
            "DIVERGED"
        },
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::Scale;

    #[test]
    fn cold_start_reports_sections_and_agrees() {
        let cfg = ExpConfig {
            seed: 5,
            scale: Scale::Quick,
        };
        let report = cold_start(&cfg);
        for needle in [
            "rebuild ms",
            "rebuild us/object",
            "load ms",
            "relation",
            "tree",
            "conservative",
            "progressive",
            "trstar",
            "cold open over floor",
            "cold-start speedup over rebuild",
            "digest agreement: identical",
        ] {
            assert!(report.contains(needle), "missing {needle}:\n{report}");
        }
    }
}
